(* The two simulation workloads: the `gcs_sim sim` path assembled from the
   public API the way the CLI assembles it (split drift, maximal delay,
   wheel scheduler, 200 Metrics and 200 Invariant probes), timed from
   outside.

   A traced job adds three things, none of which changes the execution:
   - two chains of benchmark callbacks at the probe instants, one
     scheduled before the Metrics/Invariant chains and one after, so the
     probes run between them and are timed;
   - every node's Algorithm 2 handlers re-installed wrapped in timers
     (the engine has not started, so re-installing is allowed);
   - an executor around [Runner.run] that times each dispatch round and
     each lane thunk in it. *)

type config = {
  n : int;
  ring : bool;  (** ring topology, else path *)
  horizon : float;
  churn : float;  (** random churn rate, 0 = static *)
  shards : int;
  jobs : int;  (** dispatch domains *)
}

let probed_par = { n = 16384; ring = false; horizon = 10.; churn = 0.; shards = 2; jobs = 2 }

let churn_seq = { n = 2048; ring = true; horizon = 60.; churn = 100.; shards = 1; jobs = 1 }

(* Handler time per domain. Each domain only writes its own record; the
   coordinating domain reads the workers' records after the pool has
   joined them. *)
type acc = { mutable calls : int; mutable ns : int }

let accs = ref []

let accs_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = { calls = 0; ns = 0 } in
      Mutex.protect accs_lock (fun () -> accs := a :: !accs);
      a)

let reset_accs () =
  Mutex.protect accs_lock (fun () -> accs := []);
  let own = Domain.DLS.get acc_key in
  own.calls <- 0;
  own.ns <- 0;
  Mutex.protect accs_lock (fun () -> accs := own :: !accs)

let wrap_handlers (h : Gcs.Proto.handlers) : Gcs.Proto.handlers =
  let close a t0 =
    a.ns <- a.ns + (Clock.ns () - t0);
    a.calls <- a.calls + 1
  in
  {
    on_init =
      (fun () ->
        let a = Domain.DLS.get acc_key and t0 = Clock.ns () in
        h.on_init ();
        close a t0);
    on_discover_add =
      (fun v ->
        let a = Domain.DLS.get acc_key and t0 = Clock.ns () in
        h.on_discover_add v;
        close a t0);
    on_discover_remove =
      (fun v ->
        let a = Domain.DLS.get acc_key and t0 = Clock.ns () in
        h.on_discover_remove v;
        close a t0);
    on_receive =
      (fun src m ->
        let a = Domain.DLS.get acc_key and t0 = Clock.ns () in
        h.on_receive src m;
        close a t0);
    on_timer =
      (fun tm ->
        let a = Domain.DLS.get acc_key and t0 = Clock.ns () in
        h.on_timer tm;
        close a t0);
  }

type probes = {
  mutable instants : int;
  mutable p_ns : int;
  mutable p_words : float;
  mutable t0 : int;
  mutable w0 : float;
  mutable depth_max : int;
}

type rounds = {
  mutable count : int;
  mutable round_ns : int;
  mutable busy_ns : int;
  mutable max_busy_ns : int;
  mutable idle_ns : int;
  mutable events_in : int;
  mutable own_handler_ns : int;  (** handler time of the calling domain inside rounds *)
}

(* Same recursion as Metrics.attach / Invariant.attach, so the callback
   times are bit-identical to the probes'. *)
let chain engine ~every ~until f =
  let rec schedule time =
    if time <= until then
      Dsim.Engine.at engine ~time (fun () ->
          f ();
          schedule (time +. every))
  in
  schedule (Dsim.Engine.now engine)

let timed_executor pool engine r thunks =
  let k = Array.length thunks in
  let busy = Array.make k 0 in
  let wrapped =
    Array.mapi
      (fun i f () ->
        let t0 = Clock.ns () in
        f ();
        busy.(i) <- Clock.ns () - t0)
      thunks
  in
  let own = Domain.DLS.get acc_key in
  let h0 = own.ns and e0 = Dsim.Engine.events_processed engine and t0 = Clock.ns () in
  Runner.run pool wrapped;
  let wall = Clock.ns () - t0 in
  r.count <- r.count + 1;
  r.round_ns <- r.round_ns + wall;
  r.own_handler_ns <- r.own_handler_ns + (own.ns - h0);
  r.events_in <- r.events_in + (Dsim.Engine.events_processed engine - e0);
  let total = Array.fold_left ( + ) 0 busy in
  r.busy_ns <- r.busy_ns + total;
  r.max_busy_ns <- r.max_busy_ns + (k * Array.fold_left max 0 busy);
  r.idle_ns <- r.idle_ns + ((Runner.pool_size pool * wall) - total)

let s_of_ns x = float_of_int x *. 1e-9

(* The sample series goes in as exact hex floats. [events] is shifted by
   the benchmark callbacks a traced job dispatched before the sample, so
   traced and untraced digests agree exactly. *)
let digest ~trace ~events ~samples ~shift ~probes ~violations =
  let counts =
    List.map
      (fun (k, c) -> Printf.sprintf "%s=%d" (Dsim.Trace.kind_to_string k) c)
      (Dsim.Trace.counts trace)
  in
  let series =
    List.mapi
      (fun i (s : Gcs.Metrics.sample) ->
        Printf.sprintf "%h,%h,%h,%h,%h,%d" s.time s.global_skew s.local_skew s.lmax_lag
          s.clock_lag
          (s.events - shift i))
      samples
  in
  Job.digest
    (counts
    @ [
        Printf.sprintf "events=%d" events;
        Printf.sprintf "windows=%d" (Dsim.Trace.windows trace);
        Printf.sprintf "barriers=%d" (Dsim.Trace.barriers trace);
        Printf.sprintf "cross=%d" (Dsim.Trace.cross_shard_events trace);
        Printf.sprintf "probes=%d" probes;
        Printf.sprintf "violations=%d" violations;
      ]
    @ series)

let job ~name c ~seed _i ~traced =
  let job_t0 = Clock.now () in
  let params = Gcs.Params.make ~rho:0.05 ~n:c.n () in
  let edges = if c.ring then Topology.Static.ring c.n else Topology.Static.path c.n in
  let clocks = Gcs.Drift.assign params ~horizon:c.horizon ~seed Gcs.Drift.Split_extremes in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let trace = Dsim.Trace.create () in
  let cfg =
    Gcs.Sim.config ~algo:Gcs.Sim.Gradient ~scheduler:Gcs.Sim.Wheel ~shards:c.shards
      ~partition:`Contiguous ~params ~clocks ~delay ~initial_edges:edges ~trace
      ~fault_seed:seed ()
  in
  let sim = Gcs.Sim.create cfg in
  let engine = Gcs.Sim.engine sim in
  let view = Gcs.Sim.view sim in
  let churn_events, churn_s =
    if c.churn > 0. then
      Clock.time (fun () ->
          Topology.Churn.random_churn
            (Dsim.Prng.of_int (seed + 2))
            ~n:c.n ~base:edges ~rate:c.churn ~horizon:c.horizon)
    else ([], 0.)
  in
  Topology.Churn.schedule engine churn_events;
  let every = c.horizon /. 200. in
  let p = { instants = 0; p_ns = 0; p_words = 0.; t0 = 0; w0 = 0.; depth_max = 0 } in
  if traced then
    chain engine ~every ~until:c.horizon (fun () ->
        p.depth_max <- max p.depth_max (Dsim.Engine.queue_depth engine);
        p.w0 <- Gc.minor_words ();
        p.t0 <- Clock.ns ());
  let recorder = Gcs.Metrics.attach engine view ~every ~until:c.horizon () in
  let monitor = Gcs.Invariant.attach engine view ~params ~every ~until:c.horizon () in
  if traced then begin
    chain engine ~every ~until:c.horizon (fun () ->
        p.p_ns <- p.p_ns + (Clock.ns () - p.t0);
        p.p_words <- p.p_words +. (Gc.minor_words () -. p.w0);
        p.instants <- p.instants + 1);
    for i = 0 to c.n - 1 do
      match Gcs.Sim.gradient_node sim i with
      | Some node ->
        let h = wrap_handlers (Gcs.Node.handlers node) in
        Dsim.Engine.install engine i (fun _ -> h)
      | None -> ()
    done;
    reset_accs ()
  end;
  let setup_s = Clock.now () -. job_t0 in
  let r =
    {
      count = 0; round_ns = 0; busy_ns = 0; max_busy_ns = 0; idle_ns = 0;
      events_in = 0; own_handler_ns = 0;
    }
  in
  let gc0 = Gc.quick_stat () in
  let run_t0 = Clock.now () in
  if c.shards > 1 && c.jobs > 1 then
    Runner.scoped ~jobs:(min c.jobs c.shards) (fun pool ->
        let exec =
          if traced then timed_executor pool engine r else Runner.run pool
        in
        Dsim.Engine.set_executor engine (Some exec);
        Fun.protect
          ~finally:(fun () -> Dsim.Engine.set_executor engine None)
          (fun () -> Gcs.Sim.run_until sim c.horizon))
  else Gcs.Sim.run_until sim c.horizon;
  let run_s = Clock.now () -. run_t0 in
  (* [Gc.quick_stat] folds in the counters of joined domains, so this
     reading, taken after the pool is gone, counts the worker's words. *)
  let gc1 = Gc.quick_stat () in
  let brackets = 2 * p.instants in
  let events = Dsim.Engine.events_processed engine - brackets in
  let samples = Gcs.Metrics.samples recorder in
  let digest =
    digest ~trace ~events ~samples
      ~shift:(fun i -> if traced then (2 * i) + 1 else 0)
      ~probes:(Gcs.Invariant.probes monitor)
      ~violations:(List.length (Gcs.Invariant.violations monitor))
  in
  let key = if c.churn > 0. then Some seed else None in
  let passed =
    Gcs.Invariant.ok monitor
    && Gcs.Metrics.max_global_skew recorder <= Gcs.Params.global_skew_bound params
    && Refs.sim_matches ~name ~key digest
  in
  (* Layers this configuration does not run report nothing, so that the
     per-layer means cover only the jobs that do run them. *)
  let runs_layer (name, _) =
    let prefix p = String.starts_with ~prefix:p name in
    (c.shards > 1 || not (prefix "runner." || prefix "engine.windows" || prefix "engine.barriers"
                          || prefix "engine.cross_shard"))
    && (c.churn > 0. || not (prefix "churn."))
  in
  let layers =
    if not traced then []
    else List.filter runs_layer @@ begin
      let handler_ns, calls =
        Mutex.protect accs_lock (fun () ->
            List.fold_left (fun (t, k) a -> (t + a.ns, k + a.calls)) (0, 0) !accs)
      in
      let own = Domain.DLS.get acc_key in
      let probe_s = s_of_ns p.p_ns and round_s = s_of_ns r.round_ns in
      let own_outside_s = s_of_ns (own.ns - r.own_handler_ns) in
      let engine_self_s = run_s -. probe_s -. round_s -. own_outside_s in
      let per_node = float_of_int (max 1 p.instants * c.n) in
      let count k = float_of_int (Dsim.Trace.count trace k) in
      let fire = count Dsim.Trace.Timer_fire and stale = count Dsim.Trace.Timer_stale in
      let f = float_of_int in
      [
        ("probe.count", f (Gcs.Invariant.probes monitor + List.length samples));
        ("probe.s", probe_s);
        ("probe.share", Clock.ratio probe_s run_s);
        ("probe.ns_per_node", f p.p_ns /. per_node);
        ("probe.words_per_node", p.p_words /. per_node);
        ("runner.rounds", f r.count);
        ("runner.round_s", round_s);
        ("runner.idle_s", s_of_ns r.idle_ns);
        ("runner.lane_balance", Clock.ratio (f r.busy_ns) (f r.max_busy_ns));
        ("runner.events_in_rounds_share", Clock.ratio (f r.events_in) (f events));
        ("engine.windows", f (Dsim.Trace.windows trace));
        ("engine.barriers", f (Dsim.Trace.barriers trace));
        ("engine.cross_shard_events", f (Dsim.Trace.cross_shard_events trace));
        ("engine.events", f events);
        ("engine.timer_fire", fire);
        ("engine.timer_stale", stale);
        ("engine.timer_useful_share", Clock.ratio fire (fire +. stale));
        ("engine.self_s", engine_self_s);
        ("engine.queue_depth_max", f p.depth_max);
        ("engine.footprint_mwords", f (Dsim.Engine.footprint_words engine) /. 1e6);
        ("engine.edge_events", count Dsim.Trace.Edge_add +. count Dsim.Trace.Edge_remove);
        ("node.calls", f calls);
        ("node.handler_s", s_of_ns handler_ns);
        ("node.ns_per_call", Clock.ratio (f handler_ns) (f calls));
        ("churn.gen_s", churn_s);
        ("churn.toggles", f (List.length churn_events));
        ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
        ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
        ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
    end
  in
  {
    Job.setup_s;
    run_s;
    events;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    passed;
    digest;
    layers;
  }

let workload ~name c =
  {
    Job.name;
    cycle = 1;
    fresh_heap = true;
    setup = (fun ~seed:_ -> 0.);
    job = job ~name c;
    summarize = (fun _ -> []);
  }
