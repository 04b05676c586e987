(* Host time and GC readings, taken from outside the simulator. *)

(* Bechamel's CLOCK_MONOTONIC stub, declared here with an unboxed result
   so reading the clock around every handler call allocates nothing. *)
external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let ns () = Int64.to_int (now_ns ())

let now () = float_of_int (ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let quantile q = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let sum = List.fold_left ( +. ) 0.

let ratio a b = if b = 0. then 0. else a /. b
