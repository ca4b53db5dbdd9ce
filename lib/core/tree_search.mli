(** Executable balanced m-ary tree search ({i m-ts}, Section 3.2).

    Runs the deterministic search procedure on a {b static} set of
    active leaves and records the slot-by-slot trace: first time there
    is a collision the leftmost of the [m] subtrees is examined; only
    sources whose index lies in that subtree stay active; when a
    subtree is fully searched (silence or one transmission) the
    adjacent subtree is searched, and so on.

    This module is the measurement instrument for validating the P1
    analysis: for any leaf subset, [cost (run ...)] must be at most
    [Xi.exact], and on [Xi.worst_case_subset] it must be exactly equal.
    The protocol simulator ({!Ddcr}) re-implements the same walk
    incrementally because its active sets change during the search. *)

type outcome =
  | Empty  (** probed interval held no active leaf: one empty slot *)
  | Isolated of int  (** exactly one active leaf: transmission, no slot
                         counted *)
  | Split  (** two or more active leaves: one collision slot, the [m]
               sub-intervals are searched next *)
  | Leaf_collision of int list
      (** two or more actives on a single leaf — terminal for the
          static search; in CSMA/DDCR's time trees this is where the
          static tree search is invoked *)

type step = {
  lo : int;  (** lowest leaf of the probed interval *)
  width : int;  (** interval width (a power of [m]) *)
  actives : int list;  (** active leaves inside, ascending *)
  outcome : outcome;  (** what the channel reported *)
}

type trace = step list
(** Probe order of the full search, first probe first. *)

val run : m:int -> t:int -> active:int list -> trace
(** [run ~m ~t ~active] searches the [t]-leaf balanced [m]-ary tree
    whose active leaves are [active] (distinct, in [\[0, t)]).
    Multiply-occupied leaves produce [Leaf_collision] steps (counted as
    collision slots) and their occupants are abandoned, matching a
    search in which ties are delegated to another mechanism.
    @raise Invalid_argument on invalid tree shape or leaves. *)

val cost : trace -> int
(** [cost tr] is the number of non-transmission slots: [Empty],
    [Split] and [Leaf_collision] steps each count 1; [Isolated] counts
    0 — the quantity [ξ] bounds. *)

val isolated : trace -> int list
(** [isolated tr] is the leaves isolated (transmitted), in search
    order — always left-to-right. *)

val run_arbitrated :
  m:int -> t:int -> active:(int * int) list -> int * int list
(** [run_arbitrated ~m ~t ~active] searches the tree on a
    {e non-destructive} medium ({!Rtnet_channel.Phy.Arbitration}):
    [active] pairs distinct leaves with arbitration keys; a probe of an
    interval holding two or more actives costs one slot {e and}
    delivers the smallest-keyed one, after which the sub-intervals are
    searched.  Returns [(costly_slots, delivery_order)] where
    [costly_slots] counts collision and empty slots (the quantity
    {!Xi_arb} bounds) and [delivery_order] lists the leaves in
    delivery order.
    @raise Invalid_argument on duplicate leaves or invalid shape. *)
