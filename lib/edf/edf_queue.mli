(** EDF-ordered waiting queue (algorithm {i LA} of Section 3.2).

    Each source stores its pending messages in a queue [Q] serviced
    earliest-absolute-deadline first; [msg*] is the head.  Ordering is
    the total order {!Rtnet_workload.Message.compare_edf}, so every replica ranks
    identically.  Implemented as a leftist heap: O(log n) insert and
    pop, O(1) peek. *)

type t
(** Immutable EDF queue. *)

val empty : t
(** [empty] is the queue with no message. *)

val is_empty : t -> bool
(** [is_empty q] is [true] iff [q] holds no message. *)

val size : t -> int
(** [size q] is the number of queued messages. *)

val insert : t -> Rtnet_workload.Message.t -> t
(** [insert q m] adds [m]. *)

val peek : t -> Rtnet_workload.Message.t option
(** [peek q] is [msg*] — the earliest-deadline message — if any. *)

val pop : t -> (Rtnet_workload.Message.t * t) option
(** [pop q] removes and returns [msg*]. *)

val head : t -> Rtnet_workload.Message.t
(** [head q] is [msg*] without the option {!peek} allocates.
    @raise Invalid_argument on the empty queue. *)

val rest : t -> t
(** [rest q] is [q] without [msg*] — {!pop}'s queue, without the pair
    and option — and {!empty} for {!empty}. *)

val of_list : Rtnet_workload.Message.t list -> t
(** [of_list ms] builds a queue from arbitrary order. *)

val to_sorted_list : t -> Rtnet_workload.Message.t list
(** [to_sorted_list q] is the EDF order, earliest deadline first. *)
