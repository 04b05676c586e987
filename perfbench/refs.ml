(* Reference outputs pinned from the simulator, for the inputs of the
   default seed (1, as in `gcs_sim`). A job whose output differs from its
   reference fails its checks; jobs without a reference are checked
   against the paper's bounds only. [corrupt] alters every reference, so
   the self-test can show that a wrong reference lowers pass_share. *)

let corrupt = ref false

let expect s = if !corrupt then "corrupted-" ^ s else s

(* Digest of per-kind trace counts, events, windows, barriers,
   cross-shard events, probe verdicts and the whole Metrics sample
   series (Sims.digest). The probed path has no randomness (path
   topology, split drift, maximal delay), so its reference holds for
   every seed; the churn schedule is drawn from the seed. *)
let sims =
  [
    (("sim-probed-par", None), "9fc754a518f9510a8b22a637e4cd7917");
    (("sim-churn-seq", Some 1), "93e81b0398f89076bdd990877b7be51c");
  ]

let sim_matches ~name ~key digest =
  match List.assoc_opt (name, key) sims with
  | None -> true
  | Some d -> String.equal (expect d) digest

(* Digests (spec, trace entries audited, guarantee probes, violations)
   of the first scenarios the default seed draws. *)
let fuzz =
  [|
    "98c4510c48cce7b8245f6cc5f1d984e4";
    "dcfcae12e5cfc42c5bff6843a7b5759a";
    "81c4d6043e5bf90b475123439f38c4fd";
    "aa57e3af127fdfc42b7e482f53909e38";
    "85b929c581dec6c49e9dd27a4d6518c3";
    "fec5370b879231ad9deca6a6cd520755";
    "8aaaec8c9f37cb5309d797010c4e62e8";
    "f8bb41c5836a44f24684b121a354b43f";
    "3b1d5d9e8226c89f087a4749c3175a2c";
    "c8228aaa692e5fa601edcead20d90edf";
    "8cec2ca62d26f46e2936de8da0098712";
    "cd6a1d62b8d1c05fe1ef89383a3b1dc1";
    "efea31e6fb85491e28ef720ee04dd9f1";
    "e0f028cb8d8619c5fd6323f067a063f8";
    "344bc814aa72a82e7c8caef48d61f609";
    "82b875180353885701b73c306cd3a93e";
    "e9877929a013a8e97181c4bf6ceef8c3";
    "516dea1e1ec6ce4a1bc6fd6bd94493f5";
    "a9cb2faae7f48ce694821a003eecd33c";
    "2774ec96da2332a3260d142e43f7a52d";
    "1768158211514019b189eddc99981466";
    "3d2b2ff797e8a1d84c365df7367a9835";
    "244588d2138b7064eba62924804bf68f";
    "8b3deaccd993e847a9252a439e428b33";
    "d643cec6f50f3c55c0e20f777b93d622";
    "7c9598c8852e5476cd20a7cd18024891";
    "63857af082e1937f82d7ec2ab1f6b66a";
    "1e09a87de0d2837548a2dbf8d5577595";
    "bec6e9d8fb92e34080ff596751e48356";
    "0ee2f710a1b5b0b46309d63533896130";
    "05839c46f11929875da68936497597d0";
    "5c317b1cdc3b44e5e5b4c3a5ad76bad7";
  |]

let fuzz_matches ~seed i digest =
  seed <> 1 || i >= Array.length fuzz || String.equal (expect fuzz.(i)) digest

(* Explorer.stats of every deepening level, per root, as Mchecking.stats_line
   prints them. The roots do not depend on the seed. *)
let mcheck =
  [|
    "d4:t6/p14/s6/c429/e256/m67/true/true d8:t24/p48/s30/c1803/e1074/m67/true/true d16:t6/p445/s229/c5409/e3475/m66/true/true d24:t1335/p1174/s920/c101905/e66744/m64/true/true";
    "d4:t6/p14/s6/c391/e274/m61/true/true d8:t24/p48/s30/c1663/e1146/m63/true/true d16:t194/p1066/s545/c25288/e17662/m62/true/true d24:t2003/p2729/s1733/c155808/e122728/m59/true/true";
    "d4:t6/p14/s6/c391/e274/m61/true/true d8:t24/p48/s30/c1639/e1146/m60/true/true d16:t208/p1094/s554/c26525/e18519/m61/true/true d24:t2150/p2872/s1859/c168493/e132231/m58/true/true";
    "d4:t6/p14/s6/c436/e292/m69/true/true d8:t24/p48/s30/c1807/e1218/m67/true/true d16:t1524/p464/s1047/c101289/e72046/m71/true/true d24:t982/p9934/s4049/c239276/e167630/m66/true/true";
    "d4:t6/p14/s6/c393/e274/m61/true/true d8:t24/p48/s30/c1639/e1146/m60/true/true d16:t186/p1060/s550/c24774/e17231/m62/true/true d24:t2190/p2825/s1868/c167985/e132328/m59/true/true";
    "d4:t6/p14/s6/c433/e292/m68/true/true d8:t24/p48/s30/c1805/e1218/m67/true/true d16:t1536/p460/s1051/c102060/e72544/m71/true/true d24:t1012/p9929/s4301/c240498/e168276/m65/true/true";
    "d4:t6/p14/s6/c433/e292/m68/true/true d8:t24/p48/s30/c1823/e1218/m69/true/true d16:t1536/p460/s1051/c101869/e72544/m71/true/true d24:t1012/p10298/s4297/c248102/e172968/m66/true/true";
    "d4:t6/p14/s6/c543/e310/m86/true/true d8:t24/p48/s30/c2259/e1290/m86/true/true d16:t756/p642/s795/c68754/e41425/m86/true/true d24:t6735/p53281/s24720/c1637670/e991229/m83/true/true";
  |]

let mcheck_matches r lines = r >= Array.length mcheck || String.equal (expect mcheck.(r)) lines
