type params = {
  mean_good_mbps : float;  (* average capacity in the good regime *)
  mean_fade_mbps : float;  (* average capacity during fades *)
  jitter : float;  (* per-sample multiplicative jitter amplitude, 0..1 *)
  good_dwell_ms : float;  (* mean dwell time in the good regime *)
  fade_dwell_ms : float;  (* mean dwell time in a fade *)
  sample_ms : int;  (* capacity-sample granularity *)
}

let default_params =
  {
    mean_good_mbps = 48.;
    mean_fade_mbps = 4.;
    jitter = 0.45;
    good_dwell_ms = 2500.;
    fade_dwell_ms = 900.;
    sample_ms = 100;
  }

let generate_with params ~name ~seed ~duration_ms =
  if duration_ms <= 0 then invalid_arg "Lte.generate: duration";
  if params.jitter < 0. || params.jitter >= 1. then
    invalid_arg "Lte.generate: jitter";
  let rng = Canopy_util.Prng.create seed in
  let nsamples = (duration_ms + params.sample_ms - 1) / params.sample_ms in
  let samples = Array.make nsamples 0. in
  let in_fade = ref false in
  (* Remaining dwell time of the current regime, in ms. *)
  let dwell = ref (Canopy_util.Prng.exponential rng ~rate:(1. /. params.good_dwell_ms)) in
  for i = 0 to nsamples - 1 do
    if !dwell <= 0. then begin
      in_fade := not !in_fade;
      let mean_dwell =
        if !in_fade then params.fade_dwell_ms else params.good_dwell_ms
      in
      dwell := Canopy_util.Prng.exponential rng ~rate:(1. /. mean_dwell)
    end;
    let base =
      if !in_fade then params.mean_fade_mbps else params.mean_good_mbps
    in
    let noise =
      Canopy_util.Prng.uniform rng (1. -. params.jitter) (1. +. params.jitter)
    in
    samples.(i) <- Float.max 0.5 (base *. noise);
    dwell := !dwell -. float_of_int params.sample_ms
  done;
  Trace.of_mbps_array ~name ~ms_per_sample:params.sample_ms samples

let generate ~name ~seed ~duration_ms () =
  generate_with default_params ~name ~seed ~duration_ms

let standard_suite ?(duration_ms = 30_000) () =
  [
    generate ~name:"lte-att" ~seed:101 ~duration_ms ();
    generate_with
      { default_params with mean_good_mbps = 72.; jitter = 0.55 }
      ~name:"lte-verizon" ~seed:202 ~duration_ms;
    generate_with
      {
        default_params with
        mean_good_mbps = 30.;
        mean_fade_mbps = 2.;
        fade_dwell_ms = 1500.;
      }
      ~name:"lte-tmobile-a" ~seed:303 ~duration_ms;
    generate_with
      { default_params with mean_good_mbps = 96.; good_dwell_ms = 1500. }
      ~name:"lte-tmobile-b" ~seed:404 ~duration_ms;
  ]
