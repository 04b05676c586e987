(* The fuzz workload: `gcs_sim fuzz --fuzz 600 --jobs 1`, run again and
   again. [Audit.Fuzz.run] draws its 600 scenarios serially from one
   seeded stream and then audits each with [Audit.Scenario.run]; this
   loop does the same, one scenario per job, so each audit can be timed
   and counted. The default draw has no faults. *)

let count = 600

let draw seed =
  let prng = Dsim.Prng.of_int seed in
  Array.init count (fun _ -> Audit.Scenario.generate prng)

let drawn = ref None

let scenario ~seed i =
  let all =
    match !drawn with
    | Some (s, a) when s = seed -> a
    | _ ->
      let a = draw seed in
      drawn := Some (seed, a);
      a
  in
  all.(i mod count)

(* The set-up is the draw that precedes the first audit. *)
let setup ~seed = Clock.median (List.init 11 (fun _ -> snd (Clock.time (fun () -> draw seed))))

let job ~seed i ~traced =
  let s = scenario ~seed i in
  let gc0 = Gc.quick_stat () in
  let report, run_s = Clock.time (fun () -> Audit.Scenario.run s) in
  let gc1 = Gc.quick_stat () in
  let events = report.Audit.Report.events_audited in
  let violations = List.length report.Audit.Report.violations in
  let digest =
    Job.digest
      [
        Audit.Scenario.to_spec s;
        string_of_int events;
        string_of_int report.Audit.Report.probes;
        string_of_int violations;
      ]
  in
  let passed = Audit.Report.ok report && Refs.fuzz_matches ~seed (i mod count) digest in
  let f = float_of_int in
  let layers =
    if not traced then []
    else
      [
        ("fuzz.events_audited", f events);
        ("fuzz.failures", if Audit.Report.ok report then 0. else 1.);
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

(* Per-scenario audit times, from the traced jobs. *)
let summarize (traced : Job.t list) =
  let ms = List.map (fun (j : Job.t) -> j.run_s *. 1e3) traced in
  [
    ("fuzz.scenarios", float_of_int (List.length traced));
    ("fuzz.scenario_p50_ms", Clock.quantile 0.5 ms);
    ("fuzz.scenario_p90_ms", Clock.quantile 0.9 ms);
  ]

let workload = { Job.name = "fuzz"; cycle = count; fresh_heap = false; setup; job; summarize }
