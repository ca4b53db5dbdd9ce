(** Descriptive statistics over integer samples. *)

type t = {
  count : int;
  min : int;
  max : int;
  mean : float;
  stddev : float;
  p50 : int;
  p90 : int;
  p99 : int;
}

val of_list : int list -> t option
(** [of_list samples] is [None] on the empty list, otherwise the
    summary.  Percentiles use the nearest-rank method. *)

val of_list_exn : int list -> t
(** [of_list_exn samples] is {!of_list} or
    @raise Invalid_argument on the empty list. *)

val percentile : int array -> float -> int
(** [percentile sorted p] is the nearest-rank [p]-percentile
    ([0 <= p <= 100]) of a sorted, non-empty array. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt s] prints a one-line summary. *)

(** Fixed-width or log2-bucketed histogram over integer samples. *)
module Histogram : sig
  type h

  val create : lo:int -> hi:int -> buckets:int -> h
  (** [create ~lo ~hi ~buckets] covers [\[lo, hi)] with equal buckets;
      out-of-range samples land in the first/last bucket.
      @raise Invalid_argument on empty range or [buckets < 1]. *)

  val create_log2 : unit -> h
  (** [create_log2 ()] covers every non-negative int with
      power-of-two buckets: bucket 0 holds samples [<= 1] (negatives
      are clamped), bucket [k >= 1] holds [\[2^k, 2^(k+1))].  Suited
      to latency distributions whose magnitude is unknown a priori. *)

  val log2_buckets : int
  (** Number of buckets in a {!create_log2} histogram. *)

  val add : h -> int -> unit
  (** [add h v] records one sample. *)

  val counts : h -> int array
  (** [counts h] is the per-bucket tally. *)

  val bounds : h -> (int * int) array
  (** [bounds h] is the inclusive [(lo, hi)] sample range of each
      bucket. *)

  val render : h -> string
  (** [render h] is a multi-line ASCII bar rendering.  Log2
      histograms render only up to the last populated bucket. *)
end
