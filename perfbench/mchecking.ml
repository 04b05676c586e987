(* The mcheck workload: the calls `gcs_sim mcheck --nodes 3 --depth 24`
   makes. Its eight roots (every split of the three nodes into slow and
   fast clocks) do not depend on the seed; the seed rotates the order
   they run in. One job explores one root by iterative deepening. *)

let roots () =
  Mcheck.Explorer.roots ~delays:3 ~horizon:4. ~depth:24 ~tie:true ~churn:false
    ~fault_grid:false ~alphabet:"sf" ~n:3 ()

let all = lazy (Array.of_list (roots ()))

let setup ~seed:_ = Clock.median (List.init 11 (fun _ -> snd (Clock.time roots)))

let stats_line (l : Mcheck.Explorer.level) =
  let s = l.outcome.stats in
  Printf.sprintf "d%d:t%d/p%d/s%d/c%d/e%d/m%d/%b/%b" l.at_depth s.traces s.pruned
    s.distinct_states s.choice_points s.events s.max_depth l.outcome.exhausted
    l.outcome.truncated

let job ~seed i ~traced =
  let roots = Lazy.force all in
  let k = Array.length roots in
  let r = (((seed + i) mod k) + k) mod k in
  let gc0 = Gc.quick_stat () in
  let levels, run_s =
    Clock.time (fun () ->
        Mcheck.Explorer.explore_deepening ~max_states:max_int ~budget_ms:0.
          ~max_violations:16 roots.(r))
  in
  let gc1 = Gc.quick_stat () in
  let events =
    List.fold_left
      (fun acc (l : Mcheck.Explorer.level) -> acc + l.outcome.stats.events)
      0 levels
  in
  let digest = String.concat " " (List.map stats_line levels) in
  let final = List.nth levels (List.length levels - 1) in
  let passed =
    List.for_all (fun (l : Mcheck.Explorer.level) -> l.outcome.violations = []) levels
    && final.outcome.exhausted
    && Refs.mcheck_matches r digest
  in
  let f = float_of_int in
  let layers =
    if not traced then []
    else
      let s = final.outcome.stats in
      [
        ("mcheck.traces", f s.traces);
        ("mcheck.distinct_states", f s.distinct_states);
        ("mcheck.pruned", f s.pruned);
        ("mcheck.prune_share", Clock.ratio (f s.pruned) (f (s.pruned + s.traces)));
        ("mcheck.events_per_state", Clock.ratio (f s.events) (f s.distinct_states));
        ("mcheck.choice_points", f s.choice_points);
        ("gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
        ("gc.promoted_words", gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
        ("gc.major_collections", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ]
  in
  {
    Job.setup_s = 0.;
    run_s;
    events;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    passed;
    digest;
    layers;
  }

let workload =
  {
    Job.name = "mcheck";
    cycle = Array.length (Lazy.force all);
    fresh_heap = false;
    setup;
    job;
    summarize = (fun _ -> []);
  }
