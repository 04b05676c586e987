(* The host's current speed, gauged by timing a fixed reference
   computation between jobs.

   On a shared VM the same job can take 15-30% longer for minutes at a
   time while other tenants load the memory system, and CPU time grows
   with wall time; pure arithmetic does not slow down. The reference
   computation therefore does to memory what the simulator's hot paths
   do: it streams writes through a buffer the size of the default minor
   heap and reads at random from a table far larger than the private
   caches. It allocates nothing, so the program's heap cannot change its
   time, and its arrays live outside the OCaml heap, so they do not count
   towards peak_heap_mb. It never runs the simulator's code, so a change
   to the simulator cannot speed it up or slow it down. *)

open Bigarray

let table_words = 8 * 1024 * 1024 (* 64 MiB *)

let buffer_words = 256 * 1024 (* 2 MiB *)

let table =
  lazy
    (let a = Array1.create int c_layout table_words in
     for i = 0 to table_words - 1 do
       Array1.unsafe_set a i (i * 7)
     done;
     a)

let buffer = lazy (Array1.create int c_layout buffer_words)

let kernel () =
  let t = Lazy.force table and b = Lazy.force buffer in
  let s = ref 0 and j = ref 1 in
  for round = 1 to 8 do
    for i = 0 to buffer_words - 1 do
      Array1.unsafe_set b i (i + round)
    done;
    for _ = 1 to 50_000 do
      j := ((!j * 1103515245) + 12345) land (table_words - 1);
      s := !s + Array1.unsafe_get t !j
    done
  done;
  !s

(* The kernel's time now: the fastest of three runs, since interruptions
   only ever add time. *)
let sample () =
  let once () = snd (Clock.time (fun () -> ignore (Sys.opaque_identity (kernel ())))) in
  let a = once () in
  let b = once () in
  Float.min a (Float.min b (once ()))

(* The kernel time that speed 1.0 stands for: its usual time on the
   2-vCPU VM the README's figures were taken on. *)
let nominal_s = 0.0055

(* Host seconds times the speed of the host when they were spent give
   reference seconds: the time the work would have taken at speed 1. *)
let speed kernel_s = nominal_s /. kernel_s
