(* Reference implementations only tests use: the pre-batching
   per-sample passes of the layers, the networks and the TD3 update, and
   the two vector kernels under them. They share no code with the GEMM
   and element-wise kernels the library runs, which the tests hold to
   them ([test_nn], [test_rl], [test_tensor]). Also the dense-row
   certificate engines, and the runner that records per-bin series over
   impaired links ([test_golden] pins its digests). *)

open Canopy_tensor
open Canopy_nn
open Canopy_rl
module Mathx = Canopy_util.Mathx
module Prng = Canopy_util.Prng

(* ------------------------------------------------------------------ *)
(* Matrix-vector kernels *)

(* [mᵀ·y], skipping zero entries of [y]. *)
let mat_tvec m y =
  if Mat.rows m <> Array.length y then invalid_arg "Oracle.mat_tvec: dims";
  let cols = Mat.cols m and d = Mat.raw m in
  let out = Array.make cols 0. in
  Array.iteri
    (fun i yi ->
      if yi <> 0. then
        for j = 0 to cols - 1 do
          out.(j) <- out.(j) +. (d.((i * cols) + j) *. yi)
        done)
    y;
  out

(* [m += y·xᵀ], skipping zero entries of [y]: one sample's weight
   gradient. *)
let outer_acc m y x =
  if Mat.rows m <> Array.length y || Mat.cols m <> Array.length x then
    invalid_arg "Oracle.outer_acc: dims";
  let cols = Mat.cols m and d = Mat.raw m in
  Array.iteri
    (fun i yi ->
      if yi <> 0. then
        for j = 0 to cols - 1 do
          d.((i * cols) + j) <- d.((i * cols) + j) +. (yi *. x.(j))
        done)
    y

(* ------------------------------------------------------------------ *)
(* Layers, one vector per sample *)

type rows_cache =
  | R_dense of Vec.t array  (* inputs *)
  | R_bn of { xhat : Vec.t array; inv_std : Vec.t; batch_stats : bool }
  | R_leaky of Vec.t array  (* inputs *)
  | R_tanh of Vec.t array  (* outputs *)

(* Training forward: batch norm uses the batch statistics, and folds
   them into its running ones, when the batch has more than one row. *)
let forward_rows layer batch =
  let n = Array.length batch in
  if n = 0 then invalid_arg "Oracle.forward_rows: empty batch";
  match layer with
  | Layer.Dense d ->
      let out =
        Array.map
          (fun x ->
            let y = Mat.mat_vec d.w x in
            Vec.axpy ~alpha:1. ~x:d.b ~y;
            y)
          batch
      in
      (out, R_dense batch)
  | Layer.Batch_norm bn ->
      let dim = Vec.dim bn.gamma and nf = float_of_int n in
      let batch_stats = n > 1 in
      let mu, var =
        if not batch_stats then (bn.running_mean, bn.running_var)
        else begin
          let mu = Vec.create dim and var = Vec.create dim in
          Array.iter (fun x -> Vec.axpy ~alpha:(1. /. nf) ~x ~y:mu) batch;
          Array.iter
            (fun x ->
              for i = 0 to dim - 1 do
                let d = x.(i) -. mu.(i) in
                var.(i) <- var.(i) +. (d *. d /. nf)
              done)
            batch;
          (mu, var)
        end
      in
      let inv_std = Vec.init dim (fun i -> 1. /. sqrt (var.(i) +. bn.eps)) in
      let xhat =
        Array.map
          (fun x -> Vec.init dim (fun i -> (x.(i) -. mu.(i)) *. inv_std.(i)))
          batch
      in
      let out =
        Array.map
          (fun xh ->
            Vec.init dim (fun i -> (bn.gamma.(i) *. xh.(i)) +. bn.beta.(i)))
          xhat
      in
      if batch_stats then begin
        let m = bn.momentum in
        for i = 0 to dim - 1 do
          bn.running_mean.(i) <-
            ((1. -. m) *. bn.running_mean.(i)) +. (m *. mu.(i));
          bn.running_var.(i) <- ((1. -. m) *. bn.running_var.(i)) +. (m *. var.(i))
        done
      end;
      (out, R_bn { xhat; inv_std; batch_stats })
  | Layer.Leaky_relu slope ->
      let f = Array.map (fun v -> if v >= 0. then v else slope *. v) in
      (Array.map f batch, R_leaky batch)
  | Layer.Tanh ->
      let out = Array.map (Array.map Float.tanh) batch in
      (out, R_tanh out)

(* Accumulates parameter gradients into the layer, returns the input
   gradients. *)
let backward_rows layer cache dout =
  match (layer, cache) with
  | Layer.Dense d, R_dense xs ->
      Array.iteri
        (fun b x ->
          outer_acc d.dw dout.(b) x;
          Vec.axpy ~alpha:1. ~x:dout.(b) ~y:d.db)
        xs;
      Array.map (mat_tvec d.w) dout
  | Layer.Batch_norm bn, R_bn c ->
      let n = Array.length c.xhat and dim = Vec.dim bn.gamma in
      for b = 0 to n - 1 do
        for i = 0 to dim - 1 do
          bn.dgamma.(i) <- bn.dgamma.(i) +. (dout.(b).(i) *. c.xhat.(b).(i));
          bn.dbeta.(i) <- bn.dbeta.(i) +. dout.(b).(i)
        done
      done;
      if not c.batch_stats then
        (* Running statistics are constants: the map is affine. *)
        Array.map
          (fun dy ->
            Vec.init dim (fun i -> dy.(i) *. bn.gamma.(i) *. c.inv_std.(i)))
          dout
      else begin
        (* Through the batch mean and variance. *)
        let nf = float_of_int n in
        let dxhat =
          Array.map (fun dy -> Vec.init dim (fun i -> dy.(i) *. bn.gamma.(i))) dout
        in
        let sum = Vec.create dim and sum_xhat = Vec.create dim in
        for b = 0 to n - 1 do
          for i = 0 to dim - 1 do
            sum.(i) <- sum.(i) +. dxhat.(b).(i);
            sum_xhat.(i) <- sum_xhat.(i) +. (dxhat.(b).(i) *. c.xhat.(b).(i))
          done
        done;
        Array.mapi
          (fun b _ ->
            Vec.init dim (fun i ->
                c.inv_std.(i) /. nf
                *. ((nf *. dxhat.(b).(i)) -. sum.(i)
                   -. (c.xhat.(b).(i) *. sum_xhat.(i)))))
          dout
      end
  | Layer.Leaky_relu slope, R_leaky xs ->
      (* The slope where the input's sign bit is set: -0 and a negative
         NaN included. *)
      Array.mapi
        (fun b dy ->
          Array.mapi
            (fun i g -> if Float.sign_bit xs.(b).(i) then slope *. g else g)
            dy)
        dout
  | Layer.Tanh, R_tanh ys ->
      Array.mapi
        (fun b dy ->
          Array.mapi (fun i g -> g *. (1. -. (ys.(b).(i) *. ys.(b).(i)))) dy)
        dout
  | _ -> invalid_arg "Oracle.backward_rows: cache does not match layer"

(* ------------------------------------------------------------------ *)
(* Networks *)

let mlp_forward_rows net batch =
  Mlp.bump_generation net;
  let out, rev_caches =
    List.fold_left
      (fun (acc, caches) layer ->
        let out, cache = forward_rows layer acc in
        (out, cache :: caches))
      (batch, []) (Mlp.layers net)
  in
  (out, List.rev rev_caches)

let mlp_backward_rows net tape dout =
  List.fold_left2
    (fun grad layer cache -> backward_rows layer cache grad)
    dout
    (List.rev (Mlp.layers net))
    (List.rev tape)

(* ------------------------------------------------------------------ *)
(* The TD3 update *)

(* Squared-error fit of a critic to [targets], stepped through [opt]. *)
let fit_critic critic opt inputs targets =
  let n = float_of_int (Array.length inputs) in
  Mlp.zero_grad critic;
  let preds, tape = mlp_forward_rows critic inputs in
  let dout =
    Array.mapi (fun i q -> [| 2. *. (q.(0) -. targets.(i)) /. n |]) preds
  in
  ignore (mlp_backward_rows critic tape dout);
  let params = Mlp.params critic in
  Optimizer.clip_gradients ~norm:10. params;
  Optimizer.step opt params

(* One [Td3.update] of [agent], whose configuration is [cfg], run per
   sample on a snapshot of it and written back with [Td3.restore]. It
   draws the minibatch, then the smoothing noise per transition and per
   action dimension, as the library's update does. *)
let td3_update (cfg : Td3.config) agent =
  let snap = Td3.snapshot agent in
  let buffer =
    Replay_buffer.of_seq ~capacity:snap.capacity ~cursor:snap.cursor
      (Array.to_seq snap.transitions)
  in
  if Replay_buffer.length buffer >= max cfg.warmup cfg.batch_size then begin
    let net name = List.assoc name snap.nets in
    let actor = net "actor" and actor_target = net "actor_target" in
    let critic1 = net "critic1" and critic2 = net "critic2" in
    let adam (name, lr) =
      let opt = Optimizer.adam ~lr () in
      Optimizer.restore opt (List.assoc name snap.moments);
      (name, opt)
    in
    let opts =
      List.map adam
        [ ("opt_actor", cfg.actor_lr); ("opt_critic1", cfg.critic_lr);
          ("opt_critic2", cfg.critic_lr) ]
    in
    let rng = Prng.create 0 in
    Prng.set_state rng snap.rng_state;
    let update_count = snap.update_count + 1 in
    let batch = Replay_buffer.sample buffer rng ~batch_size:cfg.batch_size in
    let n = Array.length batch in
    let clamp_action = Mathx.clamp ~lo:(-1.) ~hi:1. in
    (* TD3's target smoothing: std 0.2, clipped at 0.5. *)
    let noise () =
      Mathx.clamp ~lo:(-0.5) ~hi:0.5
        (Prng.gaussian_scaled rng ~mu:0. ~sigma:0.2)
    in
    let q critic s a = (Mlp.forward critic (Array.append s a)).(0) in
    let target (tr : Replay_buffer.transition) =
      let s' = tr.next_state in
      let a' =
        Array.map (fun x -> clamp_action (x +. noise ()))
          (Mlp.forward actor_target s')
      in
      tr.reward
      +.
      if tr.terminal then 0.
      else
        cfg.gamma
        *. Float.min (q (net "critic1_target") s' a')
             (q (net "critic2_target") s' a')
    in
    let targets = Array.map target batch in
    let states = Array.map (fun tr -> tr.Replay_buffer.state) batch in
    let inputs =
      Array.map (fun tr -> Array.append tr.Replay_buffer.state tr.action) batch
    in
    fit_critic critic1 (List.assoc "opt_critic1" opts) inputs targets;
    fit_critic critic2 (List.assoc "opt_critic2" opts) inputs targets;
    if update_count mod Td3.policy_delay = 0 then begin
      (* Deterministic policy gradient through critic 1. *)
      Mlp.zero_grad actor;
      let actions, actor_tape = mlp_forward_rows actor states in
      let _, critic_tape =
        mlp_forward_rows critic1 (Array.map2 Array.append states actions)
      in
      let dout = Array.init n (fun _ -> [| -1. /. float_of_int n |]) in
      let daction =
        Array.map
          (fun din -> Array.sub din cfg.state_dim cfg.action_dim)
          (mlp_backward_rows critic1 critic_tape dout)
      in
      ignore (mlp_backward_rows actor actor_tape daction);
      let params = Mlp.params actor in
      Optimizer.clip_gradients ~norm:10. params;
      Optimizer.step (List.assoc "opt_actor" opts) params;
      List.iter
        (fun name ->
          Mlp.soft_update ~tau:cfg.tau ~src:(net name)
            ~dst:(net (name ^ "_target")))
        [ "actor"; "critic1"; "critic2" ]
    end;
    Td3.restore agent
      {
        snap with
        moments = List.map (fun (name, o) -> (name, Optimizer.snapshot o)) opts;
        rng_state = Prng.state rng;
        update_count;
      }
  end

(* ------------------------------------------------------------------ *)
(* Certificate engines over dense rows *)

(* A distilled tree's arrays, read back from its checkpoint text (hex
   floats, exact). *)
type tree_nodes = {
  feature : int array;
  threshold : float array;
  left : int array;
  right : int array;
  leaf : int array;
  coef : float array;
  bias : float array;
}

let tree_nodes_of tree =
  let module Tree = Canopy_distill.Tree in
  let lines =
    Array.of_list (String.split_on_char '\n' (Tree.to_string tree))
  in
  let n = Tree.n_nodes tree and l = Tree.n_leaves tree in
  let d = Tree.in_dim tree in
  let words k = String.split_on_char ' ' lines.(k) in
  let t =
    {
      feature = Array.make n (-1);
      threshold = Array.make n 0.;
      left = Array.make n 0;
      right = Array.make n 0;
      leaf = Array.make n (-1);
      coef = Array.make (l * d) 0.;
      bias = Array.make l 0.;
    }
  in
  (* magic and three header lines, then one line per node *)
  for i = 0 to n - 1 do
    match words (4 + i) with
    | [ "split"; f; thr; lc; rc ] ->
        t.feature.(i) <- int_of_string f;
        t.threshold.(i) <- float_of_string thr;
        t.left.(i) <- int_of_string lc;
        t.right.(i) <- int_of_string rc
    | [ "leaf"; id ] -> t.leaf.(i) <- int_of_string id
    | _ -> failwith "Oracle.tree_nodes_of: malformed node line"
  done;
  for li = 0 to l - 1 do
    List.iteri
      (fun j w ->
        if j < d then t.coef.((li * d) + j) <- float_of_string w
        else t.bias.(li) <- float_of_string w)
      (words (4 + n + li))
  done;
  t

(* The tree's bound of [rows] boxes given as dense corner rows, box [k]
   spanning [lo.(k·d + j), hi.(k·d + j)] on column [j], as
   [Tree.output_intervals] ran it before it took factored sets: one pass
   per column finds whether some box differs from box 0 on it (the
   shared columns' terms are formed once per leaf, the others per box)
   and folds the hull; one descent over the hull then bounds, at each
   reached leaf, the boxes whose varying columns all meet its cell. *)
let tree_bound_rows ~exact t ~d ~lo ~hi ~rows ~out_lo ~out_hi =
  let[@inline] same x y = x = y && (x <> 0. || 1. /. x = 1. /. y) in
  let bad () = invalid_arg "Oracle.tree_bound_rows: bad box" in
  let hull_lo = Array.sub lo 0 d and hull_hi = Array.sub hi 0 d in
  let varies = Array.make d false in
  let vary = Array.make d 0 and n_vary = ref 0 in
  for j = 0 to d - 1 do
    let l0 = lo.(j) and h0 = hi.(j) in
    if not (l0 <= h0) then bad ();
    let k = ref 1 in
    while
      !k < rows
      && same lo.((!k * d) + j) l0
      && same hi.((!k * d) + j) h0
    do
      incr k
    done;
    if !k < rows then begin
      varies.(j) <- true;
      vary.(!n_vary) <- j;
      incr n_vary;
      for k = !k to rows - 1 do
        let l = lo.((k * d) + j) and h = hi.((k * d) + j) in
        if not (l <= h) then bad ();
        hull_lo.(j) <- Float.min hull_lo.(j) l;
        hull_hi.(j) <- Float.max hull_hi.(j) h
      done
    end
  done;
  let n_vary = !n_vary in
  let cell_lo = Array.make d neg_infinity in
  let cell_hi = Array.make d infinity in
  Array.fill out_lo 0 rows infinity;
  Array.fill out_hi 0 rows neg_infinity;
  let term_lo = Array.make d 0. and term_hi = Array.make d 0. in
  let clip_term ~base ~row j =
    let a = Float.max lo.(row + j) cell_lo.(j)
    and b = Float.min hi.(row + j) cell_hi.(j) in
    if not (a <= b) then false
    else begin
      let c = t.coef.(base + j) in
      if c = 0. then begin
        term_lo.(j) <- 0.;
        term_hi.(j) <- 0.
      end
      else begin
        let a = c *. a and b = c *. b in
        if a <= b then begin
          term_lo.(j) <- a;
          term_hi.(j) <- b
        end
        else begin
          term_lo.(j) <- b;
          term_hi.(j) <- a
        end
      end;
      true
    end
  in
  let bound_leaf l =
    let base = l * d in
    for j = 0 to d - 1 do
      if not varies.(j) then ignore (clip_term ~base ~row:0 j : bool)
    done;
    for k = 0 to rows - 1 do
      let row = k * d in
      let v = ref 0 in
      while !v < n_vary && clip_term ~base ~row vary.(!v) do
        incr v
      done;
      if !v = n_vary then begin
        let acc_lo = ref t.bias.(l) and acc_hi = ref t.bias.(l) in
        for j = 0 to d - 1 do
          acc_lo := !acc_lo +. term_lo.(j);
          acc_hi := !acc_hi +. term_hi.(j)
        done;
        out_lo.(k) <- Float.min out_lo.(k) !acc_lo;
        out_hi.(k) <- Float.max out_hi.(k) !acc_hi
      end
    done
  in
  let meets f =
    Float.max hull_lo.(f) cell_lo.(f) <= Float.min hull_hi.(f) cell_hi.(f)
  in
  let rec descend i =
    let f = t.feature.(i) in
    if f < 0 then bound_leaf t.leaf.(i)
    else begin
      let thr = t.threshold.(i) in
      let saved = cell_hi.(f) in
      if thr < saved then cell_hi.(f) <- thr;
      if meets f then descend t.left.(i);
      cell_hi.(f) <- saved;
      let saved = cell_lo.(f) in
      if thr > saved then cell_lo.(f) <- thr;
      if meets f then descend t.right.(i);
      cell_lo.(f) <- saved
    end
  in
  if exact then descend 0
  else
    for l = 0 to Array.length t.bias - 1 do
      bound_leaf l
    done

(* The verifier IR's batched transfer over dense [K × in_dim] center and
   radius rows, as [Anet.output_intervals_rows] ran it before it took
   factored sets: one scan of the input radii rejects a negative or NaN
   one, and every stage's radius GEMM sums over its input's live columns
   only (a nonzero in some row), gathered. The activation is the
   endpoint formula per cell. *)
let anet_rows ir ~centers ~radii =
  Array.iter
    (fun e ->
      if not (e >= 0.) then invalid_arg "Oracle.anet_rows: deviation")
    (Mat.raw radii);
  let live_of r =
    let rows = Mat.rows r and cols = Mat.cols r and rd = Mat.raw r in
    List.init cols Fun.id
    |> List.filter (fun j ->
           List.exists
             (fun i -> rd.((i * cols) + j) <> 0.)
             (List.init rows Fun.id))
    |> Array.of_list
  in
  let gather m live =
    Mat.init ~rows:(Mat.rows m) ~cols:(Array.length live) (fun i l ->
        Mat.get m i live.(l))
  in
  let c, r =
    List.fold_left
      (fun (c, r) (stage : Canopy_absint.Anet.stage) ->
        let rows = Mat.rows c and cols = Mat.rows stage.w in
        let c' = Mat.create ~rows ~cols and r' = Mat.create ~rows ~cols in
        Mat.mat_mul_nt_bias_into ~dst:c' c stage.w stage.b;
        let live = live_of r in
        if Array.length live = 0 then Mat.fill r' 0.
        else
          Mat.mat_mul_nt_into ~dst:r' (gather r live)
            (gather stage.abs_w live);
        let endpoints f =
          let cd = Mat.raw c' and rd = Mat.raw r' in
          Array.iteri
            (fun i ci ->
              let lo = f (ci -. rd.(i)) and hi = f (ci +. rd.(i)) in
              cd.(i) <- 0.5 *. (hi +. lo);
              rd.(i) <- 0.5 *. (hi -. lo))
            cd
        in
        (match stage.act with
        | Canopy_absint.Anet.Linear -> ()
        | Canopy_absint.Anet.Leaky_relu slope ->
            endpoints (fun x -> if x >= 0. then x else slope *. x)
        | Canopy_absint.Anet.Tanh -> endpoints Float.tanh);
        (c', r'))
      (centers, radii)
      (Canopy_absint.Anet.stages ir)
  in
  Array.init (Mat.rows c) (fun k ->
      let ck = Mat.get c k 0 and rk = Mat.get r k 0 in
      Canopy_absint.Interval.make (ck -. rk) (ck +. rk))

(* A factored set's boxes as dense rows: centers and radii (the point
   with radius +0 off the varying columns), and the corners c − e and
   c + e a certificate read off them. *)
let dense_rows (set : Canopy_absint.Box.set) =
  let d = Array.length set.point and n = Array.length set.vary in
  let centers = Mat.init ~rows:set.rows ~cols:d (fun _ j -> set.point.(j)) in
  let radii = Mat.create ~rows:set.rows ~cols:d in
  for k = 0 to set.rows - 1 do
    Array.iteri
      (fun m j ->
        Mat.set centers k j set.centers.((k * n) + m);
        Mat.set radii k j set.radii.((k * n) + m))
      set.vary
  done;
  let corner op =
    Array.map2 op (Mat.raw centers) (Mat.raw radii)
  in
  (centers, radii, corner ( -. ), corner ( +. ))

(* ------------------------------------------------------------------ *)
(* Simulator handlers and the series runner *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Controller = Canopy_cc.Controller
module Runner = Canopy_cc.Runner

let null_handlers =
  {
    Env.on_acks =
      (fun ~now_ms:_ ~rtt_ms:_ ~first_seq:_ ~count:_ ~delivered:_ -> ());
    on_loss = (fun ~now_ms:_ ~count:_ -> ());
  }

(* Invoke both, first argument first. Each sees a whole run before the
   other does, so the two must share no mutable state. *)
let chain (a : Env.handlers) (b : Env.handlers) =
  {
    Env.on_acks =
      (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
        a.on_acks ~now_ms ~rtt_ms ~first_seq ~count ~delivered;
        b.on_acks ~now_ms ~rtt_ms ~first_seq ~count ~delivered);
    on_loss =
      (fun ~now_ms ~count ->
        a.on_loss ~now_ms ~count;
        b.on_loss ~now_ms ~count);
  }

type series = {
  bin_ms : int;
  throughput_mbps : float array;  (* delivered rate per bin *)
  capacity_mbps : float array;  (* offered capacity per bin *)
  cwnd : float array;  (* effective window at each bin end *)
  avg_qdelay_ms_bins : float array;  (* mean queueing delay per bin *)
}

(* The runner with link impairments and, with [series_bin_ms], per-bin
   series of the run, from a second handler chained after the
   controller's and a sample after every millisecond. [Runner.run] is
   its clean case without series and must return its metrics bit for
   bit. *)
let runner_run ?series_bin_ms ?(impairments = Env.no_impairments) ~trace
    ~min_rtt_ms ~buffer_pkts ~duration_ms make_controller =
  if duration_ms <= 0 then invalid_arg "Oracle.runner_run: duration";
  let controller = make_controller () in
  let cfg =
    {
      Env.trace;
      min_rtt_ms;
      buffer_pkts;
      mtu_bytes = Env.default_mtu;
      initial_cwnd = controller.Controller.cwnd ();
      impairments;
    }
  in
  let fleet = Fleet.create [| cfg |] in
  let bin_ms = Option.value ~default:0 series_bin_ms in
  let nbins = if bin_ms > 0 then (duration_ms + bin_ms - 1) / bin_ms else 0 in
  let thr_bins = Array.make (Int.max 1 nbins) 0. in
  let cap_bins = Array.make (Int.max 1 nbins) 0. in
  let cwnd_bins = Array.make (Int.max 1 nbins) 0. in
  let qd_sum = Array.make (Int.max 1 nbins) 0. in
  let qd_cnt = Array.make (Int.max 1 nbins) 0 in
  let bin_of ms = Int.min (Int.max 0 ((ms - 1) / bin_ms)) (nbins - 1) in
  let series_handlers =
    if bin_ms = 0 then null_handlers
    else
      {
        Env.on_acks =
          (fun ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered:_ ->
            let b = bin_of now_ms in
            let q = float_of_int (Int.max 0 (rtt_ms - min_rtt_ms)) in
            for _ = 1 to count do
              thr_bins.(b) <- thr_bins.(b) +. 1.;
              qd_sum.(b) <- qd_sum.(b) +. q
            done;
            qd_cnt.(b) <- qd_cnt.(b) + count);
        on_loss = (fun ~now_ms:_ ~count:_ -> ());
      }
  in
  let handlers = chain (Controller.handlers controller) series_handlers in
  let ms = ref 0 in
  let after_tick _ =
    incr ms;
    Fleet.set_cwnd fleet ~flow:0 (controller.Controller.cwnd ());
    if bin_ms > 0 then begin
      let b = bin_of !ms in
      cwnd_bins.(b) <- Fleet.cwnd fleet ~flow:0;
      cap_bins.(b) <-
        cap_bins.(b) +. Canopy_trace.Trace.mbps_at trace (!ms - 1)
    end
  in
  Fleet.run ~after_tick fleet [| handlers |] ~ms:duration_ms;
  let st = Fleet.stats fleet ~flow:0 in
  let metrics =
    {
      Runner.scheme = controller.Controller.name;
      trace = Canopy_trace.Trace.name trace;
      utilization = Fleet.utilization fleet ~flow:0;
      avg_throughput_mbps =
        float_of_int st.delivered
        *. float_of_int Env.default_mtu *. 8. /. 1e6
        /. (float_of_int duration_ms /. 1000.);
      avg_qdelay_ms = Fleet.avg_qdelay_ms fleet ~flow:0;
      p95_qdelay_ms =
        (if st.delivered = 0 then 0.
         else Fleet.qdelay_percentile_ms fleet ~flow:0 95.);
      avg_rtt_ms = Fleet.avg_rtt_ms fleet ~flow:0;
      loss_rate = Fleet.loss_rate fleet ~flow:0;
      delivered_pkts = st.delivered;
      dropped_pkts = st.dropped;
    }
  in
  let series =
    if bin_ms = 0 then None
    else begin
      let pkts_to_mbps pkts =
        pkts *. float_of_int Env.default_mtu *. 8. /. 1e6
        /. (float_of_int bin_ms /. 1000.)
      in
      Some
        {
          bin_ms;
          throughput_mbps = Array.map pkts_to_mbps thr_bins;
          capacity_mbps =
            Array.map (fun sum -> sum /. float_of_int bin_ms) cap_bins;
          cwnd = cwnd_bins;
          avg_qdelay_ms_bins =
            Array.init nbins (fun b ->
                if qd_cnt.(b) = 0 then 0.
                else qd_sum.(b) /. float_of_int qd_cnt.(b));
        }
    end
  in
  (metrics, series)
