(* Checks the way the benchmark counts allocation on worker domains.

     alloc_check.exe

   The sims read [Gc.quick_stat] after [Runner.scoped] has joined its
   workers, on the assumption that the words a worker allocated appear in
   the calling domain's counters only once the worker is joined. This
   program allocates a known number of words inside thunks that run on a
   worker domain of a scoped pool, and exits 1 unless the reading taken
   after the pool is gone counts every one of them. *)

(* Each iteration allocates one [ref]: a header and one field. *)
let words_per_thunk = 3_000_000

let allocate () =
  for i = 1 to words_per_thunk / 2 do
    ignore (Sys.opaque_identity (ref i))
  done

let () =
  Runner.set_default_jobs (max 2 (Runner.default_jobs ()));
  let caller = Domain.self () in
  let on_worker = Atomic.make 0 in
  (* Of each round's two thunks, the one the calling domain claims waits
     (for at most a second) until the worker has finished the other. *)
  let thunk () =
    if Domain.self () <> caller then begin
      allocate ();
      Atomic.incr on_worker
    end
    else begin
      let seen = Atomic.get on_worker and t0 = Unix.gettimeofday () in
      while Atomic.get on_worker = seen && Unix.gettimeofday () -. t0 < 1. do
        Domain.cpu_relax ()
      done
    end
  in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let inside =
    Runner.scoped ~jobs:2 (fun pool ->
        if Runner.pool_size pool < 2 then begin
          prerr_endline "alloc_check: the pool granted no worker domain";
          exit 2
        end;
        for _ = 1 to 4 do
          Runner.run pool [| thunk; thunk |]
        done;
        (Gc.quick_stat ()).Gc.minor_words -. w0)
  in
  let after = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  let expected = float_of_int (Atomic.get on_worker * words_per_thunk) in
  Printf.printf
    "alloc_check: %d worker thunks allocated %.0f words; counted %.0f inside the pool, %.0f \
     after it joined\n"
    (Atomic.get on_worker) expected inside after;
  if Atomic.get on_worker = 0 || after < expected then begin
    prerr_endline "alloc_check: words allocated on the worker are missing from the reading";
    exit 1
  end
