(* The engine's only event queue: a (time, seq) heap of int-encoded
   events. Seqs are supplied by the caller, so ties break by seq, not by
   insertion order. *)

module Equeue = Dsim.Equeue

let case name f = Alcotest.test_case name `Quick f

let push q ~time ~seq =
  Equeue.push q ~time ~seq ~kind:0 ~a:seq ~b:0 ~c:0 ~d:0 (Obj.repr ())

(* Pop everything as (time, seq) pairs, seq read back from operand a. *)
let drain q =
  let rec go acc =
    if Equeue.is_empty q then List.rev acc
    else begin
      let t = Equeue.next_time q in
      Equeue.pop q;
      Equeue.release q;
      go ((t, Equeue.ev_a q) :: acc)
    end
  in
  go []

let test_empty () =
  let q = Equeue.create () in
  Alcotest.(check bool) "is_empty" true (Equeue.is_empty q);
  Alcotest.(check int) "size 0" 0 (Equeue.size q);
  Alcotest.(check bool) "next_time infinity" true (Equeue.next_time q = infinity);
  Alcotest.(check int) "top_seq max_int" max_int (Equeue.top_seq q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Equeue.pop: empty queue")
    (fun () -> Equeue.pop q)

let test_ordering () =
  let q = Equeue.create () in
  List.iteri (fun seq time -> push q ~time ~seq) [ 3.; 1.; 2.; 0.5; 10. ];
  Alcotest.(check (list (float 0.))) "sorted" [ 0.5; 1.; 2.; 3.; 10. ]
    (List.map fst (drain q))

let test_ties_by_seq () =
  let q = Equeue.create () in
  List.iter (fun seq -> push q ~time:5. ~seq) [ 4; 0; 3; 1; 2 ];
  Alcotest.(check (list int)) "seq order" [ 0; 1; 2; 3; 4 ] (List.map snd (drain q))

let test_interleaved_push_pop () =
  let q = Equeue.create () in
  push q ~time:2. ~seq:0;
  push q ~time:1. ~seq:1;
  Alcotest.(check int) "top seq" 1 (Equeue.top_seq q);
  Equeue.pop q;
  Alcotest.(check int) "popped operand" 1 (Equeue.ev_a q);
  push q ~time:0.5 ~seq:2;
  Alcotest.(check (list (pair (float 0.) int))) "rest" [ (0.5, 2); (2., 0) ] (drain q)

let test_grow () =
  let q = Equeue.create ~capacity:4 () in
  for i = 999 downto 0 do
    push q ~time:(float_of_int i) ~seq:i
  done;
  Alcotest.(check int) "size" 1000 (Equeue.size q);
  Alcotest.(check (list int)) "sorted output" (List.init 1000 Fun.id)
    (List.map snd (drain q))

let test_rejects_bad_input () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Equeue.create: negative capacity") (fun () ->
      ignore (Equeue.create ~capacity:(-1) ()));
  let q = Equeue.create ~capacity:0 () in
  Alcotest.check_raises "non-finite time"
    (Invalid_argument "Equeue.push: non-finite time") (fun () ->
      push q ~time:Float.infinity ~seq:0)

(* A popped slot must drop its payload: a queue keeping popped cells
   alive would retain every delivered message against the GC. *)
let seed_and_pop q w =
  let payload = Bytes.make 16 'x' in
  Weak.set w 0 (Some payload);
  Equeue.push q ~time:1. ~seq:0 ~kind:0 ~a:0 ~b:0 ~c:0 ~d:0 (Obj.repr payload);
  Equeue.push q ~time:2. ~seq:1 ~kind:0 ~a:1 ~b:0 ~c:0 ~d:0
    (Obj.repr (Bytes.make 16 'y'));
  Equeue.pop q;
  Equeue.release q

let test_released_payload_collected () =
  let q = Equeue.create () in
  let w = Weak.create 1 in
  seed_and_pop q w;
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  Alcotest.(check int) "remaining event untouched" 1 (Equeue.size q)

(* Provisional ranks resolve through the final-rank table without
   disturbing the heap order, as long as the rewrite is order-preserving
   (the engine's barrier guarantees it). *)
let test_remap_batch () =
  let q = Equeue.create () in
  push q ~time:1. ~seq:Equeue.prov_flag;
  push q ~time:1. ~seq:5;
  push q ~time:1. ~seq:(Equeue.prov_flag lor 1);
  Equeue.remap_batch q ~finals:[| 7; 8 |];
  Alcotest.(check int) "final rank on top" 5 (Equeue.top_seq q);
  Equeue.pop q;
  Alcotest.(check int) "first provisional resolved" 7 (Equeue.top_seq q);
  Equeue.pop q;
  Alcotest.(check int) "second provisional resolved" 8 (Equeue.top_seq q)

let prop_sorted =
  QCheck.Test.make ~name:"pops are sorted and complete in (time, seq) order"
    ~count:200
    QCheck.(list (int_bound 20))
    (fun times ->
      let q = Equeue.create ~capacity:2 () in
      List.iteri (fun seq t -> push q ~time:(float_of_int t) ~seq) times;
      let expected =
        List.sort compare (List.mapi (fun seq t -> (float_of_int t, seq)) times)
      in
      drain q = expected)

let suite =
  [
    case "empty queue" test_empty;
    case "ordering" test_ordering;
    case "equal times pop in seq order" test_ties_by_seq;
    case "interleaved push/pop" test_interleaved_push_pop;
    case "growth to 1000" test_grow;
    case "bad capacity and time rejected" test_rejects_bad_input;
    case "popped payloads released to the GC" test_released_payload_collected;
    case "remap_batch resolves provisional ranks" test_remap_batch;
    QCheck_alcotest.to_alcotest prop_sorted;
  ]
