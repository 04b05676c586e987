(* Regression pins for the large-n scaling work: the per-event allocation
   budget of the hot path, and the structural guarantee that timer
   re-arm traffic cannot accumulate in the event queue. *)

let case name f = Alcotest.test_case name `Quick f

let build_sim ?(n = 64) ?(edges = Topology.Static.path n) ?trace ~horizon () =
  let params = Gcs.Params.make ~n () in
  let clocks = Gcs.Drift.assign params ~horizon ~seed:1 Gcs.Drift.Split_extremes in
  let delay = Dsim.Delay.maximal ~bound:params.Gcs.Params.delay_bound in
  let cfg = Gcs.Sim.config ?trace ~params ~clocks ~delay ~initial_edges:edges () in
  Gcs.Sim.create cfg

(* Minor-heap budget: with tracing off (counters only, the default), the
   n=64 path run allocates ~48 minor words per event under dune's dev
   profile — which passes [-opaque], so every cross-module call (clock
   reads, queue pushes, trace records) boxes its float arguments and
   results regardless of [@inline] annotations. A release-profile build
   inlines those and sits near 21 words/event (semantic payloads: message
   records, timer variant blocks, delay-sampler closures). Tests run in
   dev, so pin against the dev number with headroom; regressions that
   reintroduce per-event closures, lists or boxed options blow well past
   it (the pre-rework engine sat near 90). *)
let test_minor_words_budget () =
  let horizon = 60. in
  let sim = build_sim ~horizon () in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  Gcs.Sim.run_until sim horizon;
  let minor = Gc.minor_words () -. m0 in
  let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
  Alcotest.(check bool) "ran" true (events > 1000);
  let per_event = minor /. float_of_int events in
  if per_event > 60. then
    Alcotest.failf "minor words/event %.1f exceeds budget 60.0 (%d events)"
      per_event events

(* Throughput guard: a generous ns/event ceiling that a healthy dev build
   clears by an order of magnitude but any accidental O(n) scan on the
   per-event path (the failure mode this engine was rebuilt to avoid)
   blows through at n=1024. Wall-clock on shared CI is noisy, hence the
   wide margin — this is a quadratic-regression tripwire, not a benchmark
   (bench/scale.ml measures for real, under --profile release). *)
let test_ns_per_event_ceiling () =
  let horizon = 30. in
  let n = 1024 in
  let sim = build_sim ~n ~horizon () in
  let t0 = Unix.gettimeofday () in
  Gcs.Sim.run_until sim horizon;
  let wall = Unix.gettimeofday () -. t0 in
  let events = Dsim.Engine.events_processed (Gcs.Sim.engine sim) in
  Alcotest.(check bool) "ran" true (events > 10_000);
  let ns = wall *. 1e9 /. float_of_int events in
  if ns > 50_000. then
    Alcotest.failf "ns/event %.0f exceeds ceiling 50000 at n=%d (%d events)"
      ns n events

(* Sustained traffic on a static path: armed labels are bounded by live
   protocol state (one Tick plus at most one Lost per gamma peer per
   node), the queue depth is flat over time, and pending_events by queue
   depth + live timers. *)
let test_bounded_timer_state () =
  let n = 32 in
  let sim = build_sim ~n ~horizon:200. () in
  let engine = Gcs.Sim.engine sim in
  let max_depth_early = ref 0 in
  let max_depth_late = ref 0 in
  let max_pending = ref 0 in
  let max_live = ref 0 in
  let probe cell () =
    cell := max !cell (Dsim.Engine.queue_depth engine);
    max_pending := max !max_pending (Dsim.Engine.pending_events engine);
    max_live := max !max_live (Dsim.Engine.live_timers engine)
  in
  for i = 1 to 40 do
    Dsim.Engine.at engine ~time:(2.5 *. float_of_int i)
      (probe (if i <= 20 then max_depth_early else max_depth_late))
  done;
  Gcs.Sim.run_until sim 200.;
  Alcotest.(check bool) "probes saw traffic" true (!max_depth_early > 0);
  (* One Tick per node plus at most one Lost per gamma peer: on a path
     every node has <= 2 neighbours. *)
  Alcotest.(check bool)
    (Printf.sprintf "live timers %d bounded by 3n" !max_live)
    true
    (!max_live <= 3 * n);
  (* Flat over time: the later half of the run may not out-grow the
     steady state the first half reached. *)
  Alcotest.(check bool)
    (Printf.sprintf "queue depth flat (early max %d, late max %d)"
       !max_depth_early !max_depth_late)
    true
    (!max_depth_late <= !max_depth_early);
  Alcotest.(check bool)
    (Printf.sprintf "pending %d bounded by depth+timers" !max_pending)
    true
    (!max_pending <= !max_depth_early + !max_live)

(* Timers share the event queue, so a re-arm leaves the superseded entry
   queued until its old deadline. That cannot pile up: an entry lives at
   most ΔT'/(1-ρ) real time (the Lost timeout on the slowest clock), and
   a label is re-armed once per receipt from its peer, whose sends are at
   least ΔH/(1+ρ) apart (one per tick) plus one at discovery; with
   delays in [0, T] the receipts inside one entry lifetime come from the
   sends of a span T longer. So one label holds at most
     c = ⌈(ΔT'/(1-ρ) + T) (1+ρ)/ΔH⌉ + 2
   queue entries, and the whole queue — timer entries, messages in
   flight and the discoveries their edge changes cause — is bounded by
   c·(live timers + in-flight messages), plus the events the harness
   itself keeps queued (pending churn and the next probe). Checked on a
   ring under steady random churn, where edge removals also retire
   labels with entries still queued. *)
let test_queue_depth_bounded_under_rearm () =
  let n = 32 in
  let horizon = 200. in
  let edges = Topology.Static.ring n in
  let trace = Dsim.Trace.create () in
  let sim = build_sim ~n ~edges ~trace ~horizon () in
  let p = Gcs.Sim.params sim in
  let rho = p.Gcs.Params.rho in
  let c =
    int_of_float
      (Float.ceil
         ((Gcs.Params.delta_t' p /. (1. -. rho) +. p.Gcs.Params.delay_bound)
         *. (1. +. rho) /. p.Gcs.Params.delta_h))
    + 2
  in
  let engine = Gcs.Sim.engine sim in
  let churn =
    Topology.Churn.random_churn (Dsim.Prng.of_int 5) ~n ~base:edges ~rate:2.
      ~horizon
  in
  Topology.Churn.schedule engine churn;
  let count k = Dsim.Trace.count trace k in
  let worst = ref 0. in
  let probes = ref 0 in
  let rec probe time () =
    let now = Dsim.Engine.now engine in
    let in_flight =
      count Dsim.Trace.Send - count Dsim.Trace.Deliver
      - count Dsim.Trace.Drop_in_flight - count Dsim.Trace.Drop_no_edge
      - count Dsim.Trace.Drop_lossy
    in
    let harness =
      1 + List.length (List.filter (fun e -> e.Topology.Churn.time > now) churn)
    in
    let depth = Dsim.Engine.queue_depth engine - harness in
    let bound = c * (Dsim.Engine.live_timers engine + in_flight) in
    worst := Float.max !worst (float_of_int depth /. float_of_int bound);
    incr probes;
    if time +. 2.5 < horizon then
      Dsim.Engine.at engine ~time:(time +. 2.5) (probe (time +. 2.5))
  in
  Dsim.Engine.at engine ~time:2.5 (probe 2.5);
  Gcs.Sim.run_until sim horizon;
  Alcotest.(check bool)
    (Printf.sprintf "churn removed %d edges" (count Dsim.Trace.Edge_remove))
    true
    (count Dsim.Trace.Edge_remove > 10);
  Alcotest.(check bool) "stale entries occurred" true
    (count Dsim.Trace.Timer_stale > count Dsim.Trace.Timer_fire);
  Alcotest.(check bool) "probed throughout" true (!probes >= 79);
  Alcotest.(check bool)
    (Printf.sprintf "queue depth <= %d * (live timers + in flight): worst ratio %.3f"
       c !worst)
    true (!worst <= 1.)

let suite =
  [
    case "minor words/event within budget (n=64, trace off)" test_minor_words_budget;
    case "ns/event under quadratic-regression ceiling" test_ns_per_event_ceiling;
    case "timer state bounded under sustained traffic" test_bounded_timer_state;
    case "queue depth bounded by c * (live timers + in flight) under churn"
      test_queue_depth_bounded_under_rearm;
  ]
