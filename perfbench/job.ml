(* What one job reports back to the benchmark loop. A job is one
   simulation to its horizon, one audited fuzz scenario, or one explored
   model-checker root. *)

type t = {
  setup_s : float;  (** host time spent building the job's inputs *)
  run_s : float;  (** host time of the run itself *)
  events : int;  (** engine events dispatched (fuzz: trace entries audited) *)
  minor_words : float;  (** words allocated during the run, every domain *)
  passed : bool;  (** the job's output checks held *)
  digest : string;
      (** the exact counts of the execution; a traced job must reproduce
          its untraced twin's digest *)
  layers : (string * float) list;  (** per-layer readings, traced jobs only *)
}

type workload = {
  name : string;
  cycle : int;
      (** jobs per block: the work of one CLI invocation (one simulation,
          one 600-scenario fuzz campaign, one 8-root mcheck sweep). Every
          block has the same inputs, and runs end on a block boundary. *)
  fresh_heap : bool;
      (** collect the heap before each job (untimed), so large jobs do
          not pay for their predecessors' garbage *)
  setup : seed:int -> float;
      (** the set-up a block shares (the median of repeats), timed at the
          start of every block; 0 when each job times its own *)
  job : seed:int -> int -> traced:bool -> t;
  summarize : t list -> (string * float) list;
      (** per-layer readings taken over all traced jobs together *)
}

let digest parts = Digest.to_hex (Digest.string (String.concat ";" parts))
