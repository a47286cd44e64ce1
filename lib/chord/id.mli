(** Identifiers on the 32-bit Chord ring.

    Both peers and data-partition identifiers live in the circular space
    [\[0, 2{^32})] (§4). Peers are placed by SHA-1 of their address; partition
    identifiers come from the LSH scheme. All interval tests are circular. *)

type t = int
(** An identifier in [\[0, 2{^32})]. The type is [int] (not abstract) because
    identifiers flow between the LSH, Chord and core libraries; validity is
    enforced at construction points. *)

val bits : int
(** Ring width: 32. *)

val modulus : int
(** 2{^32}. *)

val is_valid : int -> bool

val of_name : string -> t
(** SHA-1 of the name, truncated to 32 bits — how peers are placed on the
    ring from their address. *)

val add_pow2 : t -> int -> t
(** [add_pow2 id i] is [(id + 2{^i}) mod 2{^32}] — the start of finger [i]. *)

val distance_cw : from:t -> to_:t -> int
(** Clockwise distance from [from] to [to_] (0 when equal). *)

val in_interval_oo : t -> lo:t -> hi:t -> bool
(** Circular open interval [(lo, hi)]. Empty when [lo = hi]… except that in
    Chord's conventions an interval with [lo = hi] denotes the whole ring
    minus the endpoint, which is what routing needs; we follow Chord. *)

val in_interval_oc : t -> lo:t -> hi:t -> bool
(** Circular half-open interval [(lo, hi\]] — successor ownership test: node
    [s] owns key [k] iff [k ∈ (predecessor(s), s\]]. *)

val pp : Format.formatter -> t -> unit
(** Zero-padded hexadecimal. *)

(** Hash tables keyed by identifiers (and by any other [int]: peer ids,
    ring positions). The stdlib's table transcribed for [int] keys: the
    index is the same [caml_hash] call as [Hashtbl.hash], and sizing,
    resizing and bucket order are the stdlib's, so every key lands in the
    same bucket as in a generic [Hashtbl] and [fold]/[iter] visit the same
    order. Probes compare with [Int.equal] inline, without the functor's
    closure calls. Each operation behaves as its [Hashtbl.S] namesake,
    including adds and removes made during [iter]/[fold]. *)
module Tbl : sig
  type key = int
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val clear : 'a t -> unit
  val reset : 'a t -> unit
  val add : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val find : 'a t -> key -> 'a
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val replace : 'a t -> key -> 'a -> unit
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
end

(** The same for pairs of ints, e.g. (position, segment start). *)
module Pair_tbl : Hashtbl.S with type key = int * int
