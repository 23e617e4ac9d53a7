type t = {
  name : string;
  (* Segment boundaries: start_ms.(i) is the first millisecond of segment
     i; mbps.(i) its capacity. start_ms is strictly increasing and starts
     at 0. *)
  start_ms : int array;
  mbps : float array;
  duration_ms : int;
}

let of_segments ~name segments =
  if segments = [] then invalid_arg "Trace.of_segments: empty";
  List.iter
    (fun (dur, rate) ->
      if dur <= 0 then invalid_arg "Trace.of_segments: duration";
      if rate < 0. || Float.is_nan rate then
        invalid_arg "Trace.of_segments: rate")
    segments;
  let n = List.length segments in
  let start_ms = Array.make n 0 and mbps = Array.make n 0. in
  let total =
    List.fold_left
      (fun (i, acc) (dur, rate) ->
        start_ms.(i) <- acc;
        mbps.(i) <- rate;
        (i + 1, acc + dur))
      (0, 0) segments
    |> snd
  in
  { name; start_ms; mbps; duration_ms = total }

let constant ~name ~duration_ms ~mbps =
  of_segments ~name [ (duration_ms, mbps) ]

let of_mbps_array ~name ~ms_per_sample samples =
  if ms_per_sample <= 0 then invalid_arg "Trace.of_mbps_array: ms_per_sample";
  of_segments ~name
    (Array.to_list (Array.map (fun r -> (ms_per_sample, r)) samples))

let name t = t.name
let duration_ms t = t.duration_ms

let segment_index t ms =
  (* Binary search for the last segment starting at or before ms. *)
  let lo = ref 0 and hi = ref (Array.length t.start_ms - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.start_ms.(mid) <= ms then lo := mid else hi := mid - 1
  done;
  !lo

let mbps_at t ms =
  if ms < 0 then invalid_arg "Trace.mbps_at: negative time";
  let ms = ms mod t.duration_ms in
  t.mbps.(segment_index t ms)

let avg_mbps t =
  let acc = ref 0. in
  let n = Array.length t.start_ms in
  for i = 0 to n - 1 do
    let finish = if i = n - 1 then t.duration_ms else t.start_ms.(i + 1) in
    acc := !acc +. (t.mbps.(i) *. float_of_int (finish - t.start_ms.(i)))
  done;
  !acc /. float_of_int t.duration_ms

let min_mbps t = Array.fold_left Float.min t.mbps.(0) t.mbps
let max_mbps t = Array.fold_left Float.max t.mbps.(0) t.mbps

let packets_per_ms ~mtu_bytes t ms =
  (* mbps → bytes/ms is ×125. *)
  mbps_at t ms *. 125. /. float_of_int mtu_bytes

let to_mahimahi ~mtu_bytes t =
  let buf = Buffer.create 4096 in
  let credit = ref 0. in
  for ms = 0 to t.duration_ms - 1 do
    credit := !credit +. packets_per_ms ~mtu_bytes t ms;
    while !credit >= 1. do
      Buffer.add_string buf (string_of_int (ms + 1));
      Buffer.add_char buf '\n';
      credit := !credit -. 1.
    done
  done;
  Buffer.contents buf

let of_mahimahi ~name ~mtu_bytes s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" then None
           else
             match int_of_string_opt l with
             | Some ts when ts > 0 -> Some ts
             | _ -> failwith "Trace.of_mahimahi: bad timestamp")
  in
  match lines with
  | [] -> failwith "Trace.of_mahimahi: empty trace"
  | timestamps ->
      let duration = List.fold_left max 1 timestamps in
      let pkts = Array.make duration 0 in
      List.iter (fun ts -> pkts.(ts - 1) <- pkts.(ts - 1) + 1) timestamps;
      (* Group per-ms counts into 100 ms buckets to keep segments coarse. *)
      let bucket = 100 in
      let nbuckets = (duration + bucket - 1) / bucket in
      let samples =
        Array.init nbuckets (fun b ->
            let lo = b * bucket and hi = min duration ((b + 1) * bucket) in
            let total = ref 0 in
            for ms = lo to hi - 1 do
              total := !total + pkts.(ms)
            done;
            float_of_int (!total * mtu_bytes) /. 125. /. float_of_int (hi - lo))
      in
      of_mbps_array ~name ~ms_per_sample:bucket samples

let save ~mtu_bytes t path =
  Canopy_util.Atomic_file.write path (to_mahimahi ~mtu_bytes t)

let load ~name ~mtu_bytes path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_mahimahi ~name ~mtu_bytes (really_input_string ic n))

let pp ppf t =
  Format.fprintf ppf "%s: %dms, %.1f/%.1f/%.1f Mbps (min/avg/max)" t.name
    t.duration_ms (min_mbps t) (avg_mbps t) (max_mbps t)
