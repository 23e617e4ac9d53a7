let ramp_step_ms = 200
(* Granularity of the piecewise-linear ramps: one segment per 200 ms keeps
   segment counts small while looking smooth at the RTT timescale. *)

let step_fluctuation ~duration_ms ~period_ms ~low_mbps ~high_mbps () =
  if period_ms <= 0 || duration_ms <= 0 then
    invalid_arg "Synthetic.step_fluctuation: durations";
  if low_mbps < 0. || high_mbps < low_mbps then
    invalid_arg "Synthetic.step_fluctuation: rates";
  let name = Printf.sprintf "step-%g-%g-p%d" low_mbps high_mbps period_ms in
  let segments = ref [] in
  let t = ref 0 in
  let high = ref true in
  while !t < duration_ms do
    let dur = min period_ms (duration_ms - !t) in
    segments := (dur, if !high then high_mbps else low_mbps) :: !segments;
    high := not !high;
    t := !t + dur
  done;
  Trace.of_segments ~name (List.rev !segments)

let ramp segments_of_cycle ~gen_name ~duration_ms ~cycle_ms ~floor_mbps
    ~peak_mbps () =
  if cycle_ms < 2 * ramp_step_ms || duration_ms <= 0 then
    invalid_arg "Synthetic.ramp: durations";
  if floor_mbps < 0. || peak_mbps < floor_mbps then
    invalid_arg "Synthetic.ramp: rates";
  let name = Printf.sprintf "%s-%g-%g-c%d" gen_name floor_mbps peak_mbps cycle_ms in
  let cycle = segments_of_cycle ~cycle_ms ~floor_mbps ~peak_mbps in
  let segments = ref [] in
  let t = ref 0 in
  while !t < duration_ms do
    List.iter
      (fun (dur, rate) ->
        if !t < duration_ms then begin
          let dur = min dur (duration_ms - !t) in
          segments := (dur, rate) :: !segments;
          t := !t + dur
        end)
      cycle
  done;
  Trace.of_segments ~name (List.rev !segments)

let ramp_drop ~duration_ms ~cycle_ms ~floor_mbps ~peak_mbps () =
  let segments_of_cycle ~cycle_ms ~floor_mbps ~peak_mbps =
    let steps = cycle_ms / ramp_step_ms in
    List.init steps (fun i ->
        let frac = float_of_int i /. float_of_int (max 1 (steps - 1)) in
        (ramp_step_ms, Canopy_util.Mathx.lerp floor_mbps peak_mbps frac))
  in
  ramp segments_of_cycle ~gen_name:"rampdrop" ~duration_ms ~cycle_ms
    ~floor_mbps ~peak_mbps ()

let triangle ~duration_ms ~cycle_ms ~floor_mbps ~peak_mbps () =
  let segments_of_cycle ~cycle_ms ~floor_mbps ~peak_mbps =
    let steps = cycle_ms / ramp_step_ms in
    let half = max 1 (steps / 2) in
    List.init steps (fun i ->
        let frac =
          if i < half then float_of_int i /. float_of_int half
          else float_of_int (steps - i) /. float_of_int (steps - half)
        in
        (ramp_step_ms, Canopy_util.Mathx.lerp floor_mbps peak_mbps frac))
  in
  ramp segments_of_cycle ~gen_name:"triangle" ~duration_ms ~cycle_ms
    ~floor_mbps ~peak_mbps ()

let standard_suite ?(duration_ms = 30_000) () =
  (* Six parameterizations per family spanning the Table-2 bandwidth
     range [6, 192] Mbps. *)
  let steps =
    List.map
      (fun (low, high, period) ->
        step_fluctuation ~duration_ms ~period_ms:period ~low_mbps:low
          ~high_mbps:high ())
      [
        (6., 24., 2000);
        (12., 48., 2000);
        (24., 96., 3000);
        (48., 192., 3000);
        (6., 96., 4000);
        (12., 192., 5000);
      ]
  in
  let rampdrops =
    List.map
      (fun (floor, peak, cycle) ->
        ramp_drop ~duration_ms ~cycle_ms:cycle ~floor_mbps:floor
          ~peak_mbps:peak ())
      [ (6., 48., 4000); (12., 96., 5000); (24., 192., 6000) ]
  in
  let triangles =
    List.map
      (fun (floor, peak, cycle) ->
        triangle ~duration_ms ~cycle_ms:cycle ~floor_mbps:floor
          ~peak_mbps:peak ())
      [ (6., 48., 4000); (12., 96., 5000); (24., 192., 6000) ]
  in
  let steep_steps =
    (* Short-period variants stress reaction speed. *)
    List.map
      (fun (low, high, period) ->
        step_fluctuation ~duration_ms ~period_ms:period ~low_mbps:low
          ~high_mbps:high ())
      [
        (6., 48., 800);
        (12., 96., 800);
        (24., 192., 1000);
        (6., 192., 1500);
        (48., 96., 600);
        (96., 192., 600);
      ]
  in
  steps @ rampdrops @ triangles @ steep_steps
