(* The benchmark binary. perfbench/run.py builds it and runs

     bench.exe --workload W --seed N --seconds S --trace 0|1

   With --trace 0 it runs jobs of workload W for S seconds, checks every
   output, and prints the end-to-end metrics. With --trace 1 it runs each
   job twice, untraced and then traced with the layer timers of
   Sims/Fuzzing/Mchecking, checks that both produce the same exact
   counts, and prints the per-layer metrics, the leftover and the
   tracing overhead. The last line of stdout is one JSON object. *)

let end_to_end =
  [
    ("jobs_per_s", "1/s");
    ("events_per_s", "1/s");
    ("setup_s", "s");
    ("alloc_words_per_event", "words");
    ("peak_heap_mb", "MB");
    ("pass_share", "share");
  ]

let per_layer =
  [
    ("probe.count", "count");
    ("probe.s", "s");
    ("probe.share", "share");
    ("probe.ns_per_node", "ns");
    ("probe.words_per_node", "words");
    ("runner.rounds", "count");
    ("runner.round_s", "s");
    ("runner.idle_s", "s");
    ("runner.lane_balance", "share");
    ("runner.events_in_rounds_share", "share");
    ("engine.windows", "count");
    ("engine.barriers", "count");
    ("engine.cross_shard_events", "count");
    ("engine.events", "count");
    ("engine.timer_fire", "count");
    ("engine.timer_stale", "count");
    ("engine.timer_useful_share", "share");
    ("engine.self_s", "s");
    ("engine.queue_depth_max", "count");
    ("engine.footprint_mwords", "Mwords");
    ("engine.edge_events", "count");
    ("node.calls", "count");
    ("node.handler_s", "s");
    ("node.ns_per_call", "ns");
    ("churn.gen_s", "s");
    ("churn.toggles", "count");
    ("fuzz.scenarios", "count");
    ("fuzz.scenario_p50_ms", "ms");
    ("fuzz.scenario_p90_ms", "ms");
    ("fuzz.events_audited", "count");
    ("fuzz.failures", "count");
    ("mcheck.traces", "count");
    ("mcheck.distinct_states", "count");
    ("mcheck.pruned", "count");
    ("mcheck.prune_share", "share");
    ("mcheck.events_per_state", "count");
    ("mcheck.choice_points", "count");
    ("gc.minor_words", "words");
    ("gc.promoted_words", "words");
    ("gc.major_collections", "count");
    ("host.kernel_ms", "ms");
    ("host.speed", "share");
    ("trace.leftover_s", "s");
    ("trace.leftover_share", "share");
    ("trace.overhead_share", "share");
  ]

let workloads =
  [
    Sims.workload ~name:"sim-probed-par" Sims.probed_par;
    Sims.workload ~name:"sim-churn-seq" Sims.churn_seq;
    Fuzzing.workload;
    Mchecking.workload;
  ]

type timed = {
  job : Job.t;
  wall_s : float;
  speed : float;  (** the host's speed around the job (Host.speed) *)
}

(* Runs jobs 0, 1, ... until [seconds] have passed and a whole block is
   done. In traced mode each index runs untraced and traced, the two in
   alternating order so neither side always runs on a colder heap.

   The host's speed is sampled before every [stride]-th index and once
   after the last; a job's speed is the mean of the samples on either
   side of it. Returns the jobs, each block's shared set-up time in
   reference seconds, the kernel times, and the peak heap after the first
   block: the heap one CLI invocation's work needs. Later blocks would
   raise the peak with the number of blocks a run holds, so with the
   host's speed. *)
let loop (w : Job.workload) ~seed ~seconds ~traced =
  (* Fuzz scenarios take milliseconds; sampling before every 40th keeps
     the kernel's share of a run near 5%. *)
  let stride = max 1 (w.cycle / 15) in
  let start = Clock.now () in
  let runs = ref [] and setups = ref [] and kernels = ref [] and peak = ref 0. in
  let i = ref 0 in
  let run_one ~traced =
    if w.fresh_heap then Gc.full_major ();
    Clock.time (fun () -> w.job ~seed !i ~traced)
  in
  while !i = 0 || !i mod w.cycle <> 0 || Clock.now () -. start < seconds do
    if !i mod stride = 0 then kernels := Host.sample () :: !kernels;
    if !i mod w.cycle = 0 then setups := (!i, w.setup ~seed) :: !setups;
    let pair =
      if not traced then (run_one ~traced:false, None)
      else if !i mod 2 = 0 then
        let plain = run_one ~traced:false in
        (plain, Some (run_one ~traced:true))
      else
        let twin = run_one ~traced:true in
        (run_one ~traced:false, Some twin)
    in
    runs := pair :: !runs;
    incr i;
    if !i = w.cycle then peak := Clock.peak_heap_mb ()
  done;
  let kernels = Array.of_list (List.rev (Host.sample () :: !kernels)) in
  let speed i = Host.speed ((kernels.(i / stride) +. kernels.((i / stride) + 1)) /. 2.) in
  let timed i ((job, wall_s) : Job.t * float) = { job; wall_s; speed = speed i } in
  let runs =
    List.mapi (fun i (p, t) -> (timed i p, Option.map (timed i) t)) (List.rev !runs)
  in
  let setups = List.rev_map (fun (i, s) -> s *. speed i) !setups in
  (runs, setups, kernels, !peak)

let print_json ~correct ~attempted ~failed metrics =
  let field (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %16.6g %s\n" name v unit) metrics

(* A run is a sequence of blocks with the same inputs. Times are in
   reference seconds (Host): each job's host time times the host's speed
   around it. A block's time is the sum, over its job positions, of that
   position's median time across the run's blocks. *)
let end_to_end_metrics (w : Job.workload) ~setups ~peak runs =
  let runs = Array.of_list (List.map fst runs) in
  let jobs = Array.map (fun r -> r.job) runs in
  let n = Array.length jobs in
  let f = float_of_int in
  let block_time g =
    Clock.sum
      (List.init w.cycle (fun p ->
           Clock.median
             (List.init (n / w.cycle) (fun b ->
                  let r = runs.((b * w.cycle) + p) in
                  g r.job *. r.speed))))
  in
  let total g = Array.fold_left (fun acc j -> acc +. g j) 0. jobs in
  let events = total (fun (j : Job.t) -> f j.events) in
  (* A block's set-up: what its jobs share plus what each builds. *)
  let setups =
    List.mapi
      (fun b shared ->
        shared
        +. Clock.sum
             (List.init w.cycle (fun p ->
                  let r = runs.((b * w.cycle) + p) in
                  r.job.Job.setup_s *. r.speed)))
      setups
  in
  let passed = total (fun (j : Job.t) -> if j.passed then 1. else 0.) in
  let values =
    [
      ("jobs_per_s", f w.cycle /. block_time (fun j -> j.setup_s +. j.run_s));
      ("events_per_s", events /. f (n / w.cycle) /. block_time (fun j -> j.run_s));
      ("setup_s", Clock.median setups);
      ("alloc_words_per_event", total (fun j -> j.minor_words) /. events);
      ("peak_heap_mb", peak);
      ("pass_share", passed /. f n);
    ]
  in
  List.map (fun (name, unit) -> (name, unit, List.assoc name values)) end_to_end

let per_layer_metrics (w : Job.workload) ~kernels runs =
  let plain = List.map fst runs and traced = List.filter_map snd runs in
  let k = float_of_int (List.length traced) in
  (* The mean over the traced jobs that run the layer; 0 if none does. *)
  let mean name =
    match List.filter_map (fun t -> List.assoc_opt name t.job.Job.layers) traced with
    | [] -> 0.
    | vs -> Clock.sum vs /. float_of_int (List.length vs)
  in
  let busy rs = Clock.sum (List.map (fun r -> r.job.Job.setup_s +. r.job.Job.run_s) rs) in
  let wall = Clock.sum (List.map (fun r -> r.wall_s) traced) in
  let leftover = wall -. busy traced in
  let derived =
    [
      ("trace.leftover_s", leftover /. k);
      ("trace.leftover_share", leftover /. wall);
      (* Both sides ran the same inputs, interleaved; positive is a cost. *)
      ("trace.overhead_share", 1. -. (busy plain /. busy traced));
      ("host.kernel_ms", 1e3 *. Clock.median (Array.to_list kernels));
      ("host.speed", Clock.median (List.map (fun t -> t.speed) traced));
    ]
    @ w.summarize (List.map (fun t -> t.job) traced)
  in
  List.iter
    (fun t ->
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name per_layer) then
            failwith ("undeclared per-layer metric " ^ name))
        t.job.Job.layers)
    traced;
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name derived with Some v -> v | None -> mean name in
      (name, unit, v))
    per_layer

(* A block of one job repeats the same inputs, so every job of the run
   must produce the same digest. Jobs whose digest differs from the most
   common one fail their checks. [corrupt_job] alters one job's digest
   first, so the self-test can show that the check lowers pass_share. *)
let agree_across_jobs (w : Job.workload) ~corrupt_job runs =
  let runs =
    List.mapi
      (fun i (p, t) ->
        if i <> corrupt_job then (p, t)
        else ({ p with job = { p.job with Job.digest = "corrupted-" ^ p.job.Job.digest } }, t))
      runs
  in
  if w.cycle <> 1 then runs
  else
    let digests = List.map (fun (p, _) -> p.job.Job.digest) runs in
    let freq d = List.length (List.filter (String.equal d) digests) in
    let common =
      List.fold_left (fun best d -> if freq d > freq best then d else best) (List.hd digests) digests
    in
    List.map
      (fun (p, t) ->
        if String.equal p.job.Job.digest common then (p, t)
        else ({ p with job = { p.job with Job.passed = false } }, t))
      runs

let print_refs (w : Job.workload) ~seed runs =
  List.iteri
    (fun i (p, _) ->
      Printf.printf "ref %s seed=%d job=%d setup_s=%.6f run_s=%.6f speed=%.4f: %s\n" w.name seed
        i p.job.Job.setup_s p.job.Job.run_s p.speed p.job.Job.digest)
    runs

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let refs = ref false and corrupt_job = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are drawn from");
      ("--seconds", Arg.Set_float seconds, "S how long to run jobs");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--corrupt-references", Arg.Set Refs.corrupt, " alter every pinned reference");
      ("--corrupt-job", Arg.Set_int corrupt_job, "I alter the digest of job I (0-based)");
      ("--print-refs", Arg.Set refs, " print each job's digest");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if Profile.name <> "release" then begin
    prerr_endline "bench.exe: built under a dev profile; rebuild with --profile release";
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench.exe: --seconds must be > 0, --trace 0 or 1";
    exit 2
  end;
  match List.find_opt (fun (w : Job.workload) -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "bench.exe: unknown workload %S\n" !workload;
    exit 2
  | Some w ->
    (* The runner caps live domains at its default; sim-probed-par needs
       two of them. *)
    Runner.set_default_jobs (max Sims.probed_par.jobs (Runner.default_jobs ()));
    let traced = !trace = 1 in
    let runs, setups, kernels, peak = loop w ~seed:!seed ~seconds:!seconds ~traced in
    let runs = agree_across_jobs w ~corrupt_job:!corrupt_job runs in
    if !refs then print_refs w ~seed:!seed runs;
    let all = List.concat_map (fun (p, t) -> p :: Option.to_list t) runs in
    let failed = List.length (List.filter (fun r -> not r.job.Job.passed) all) in
    let twins_agree =
      List.for_all
        (fun (p, t) ->
          match t with None -> true | Some t -> String.equal p.job.Job.digest t.job.Job.digest)
        runs
    in
    let metrics =
      if traced then per_layer_metrics w ~kernels runs else end_to_end_metrics w ~setups ~peak runs
    in
    print_table
      (Printf.sprintf "%s seed=%d jobs=%d%s, host speed %.3f (reference kernel %.2f ms, speed 1 = %.2f ms)"
         w.name !seed (List.length runs)
         (if traced then " traced" else "")
         (Clock.median (List.map (fun (p, _) -> p.speed) runs))
         (1e3 *. Clock.median (Array.to_list kernels))
         (1e3 *. Host.nominal_s))
      metrics;
    if not twins_agree then print_endline "traced run diverged from the untraced run";
    print_json ~correct:(failed = 0 && twins_agree) ~attempted:(List.length all) ~failed
      metrics
