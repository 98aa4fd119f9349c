open Import

(** Power-schedule state: which corpus entry to mutate next.

    Two levels of choice, both deterministic given the rng cursor:

    - {b families} (access paths) are chosen by UCB1 over the novelty
      reward each family's executions have earned, balancing
      exploitation of productive gadget families against exploration of
      under-tried ones;
    - {b entries} within the family are chosen with energy proportional
      to how much coverage they discovered and how recently — a classic
      AFL-style power schedule where fresh frontier entries get mutated
      most. *)

type entry = {
  testcase : Testcase.t;
  novelty : int;  (** Coverage bits this entry set when first executed. *)
  born : int;  (** Executed-candidate index at which it entered. *)
}

type t

val create : unit -> t

(** [register_exec t ~family ~reward] accounts one executed candidate of
    the family and the novelty bits it contributed (the UCB1 signal). *)
val register_exec : t -> family:Access_path.t -> reward:int -> unit

(** [add_entry t entry] enqueues an interesting test case. *)
val add_entry : t -> entry -> unit

(** All queued test cases (the crossover pool), in a deterministic
    order. *)
val pool : t -> Testcase.t array

(** [pick_family t] applies UCB1 over families with a non-empty queue;
    [None] when the whole queue is empty.  Untried families win first,
    in declaration order. *)
val pick_family : t -> Access_path.t option

(** [pick_entry t ~rng_state ~now family] draws an entry of the family
    with probability proportional to its current energy
    [novelty / (1 + age/32)]. *)
val pick_entry : t -> rng_state:Word.t ref -> now:int -> Access_path.t -> entry option

(** Read-only snapshot of one family's scheduler state, for
    observability exports. *)
type family_stats = {
  family : Access_path.t;
  trials : int;  (** Executions accounted to the family. *)
  reward : int;  (** Total novelty bits those executions earned. *)
  queue_length : int;
  ucb : float option;
      (** The UCB1 score {!pick_family} ranks by; [None] until the
          family has been tried. *)
}

(** Per-family snapshot in declaration order.  Pure read — sampling it
    never changes what the scheduler will pick next. *)
val stats : t -> family_stats list
