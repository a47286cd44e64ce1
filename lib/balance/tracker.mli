(** Windowed load accounting for hot-bucket detection.

    The tracker keeps two kinds of tallies:

    - {b per-peer}: cumulative counts of identifier lookups a peer has
      served ([record_query]) and of entries stored at it ([record_entries])
      — the raw material of the max/mean imbalance ratio that Figure 11
      motivates;
    - {b per-identifier}: lookup counts over a sliding pair of windows of
      [window] recorded lookups each. An identifier's {e hot score} is its
      count over the current (partial) plus the previous (full) window, so
      hotness both builds up and decays as the workload shifts.

    Hotness is judged by a {!hot_policy}: either an absolute score
    threshold or membership in the top-[k] scores. All state is plain
    hashtable counting — deterministic, allocation-light, and independent
    of the global {!Obs.Metrics} switch (callers mirror what they want into
    the metrics registry). *)

type hot_policy =
  | Absolute of int  (** hot when the windowed score reaches the threshold *)
  | Top_k of int
      (** hot when among the [k] highest windowed scores (ties broken
          toward smaller identifiers, so the hot set is deterministic) *)

type t

val create : ?window:int -> hot_policy -> t
(** [create ?window policy] — [window] (default 1024) is how many recorded
    lookups make up one hotness window. @raise Invalid_argument when
    [window < 1], or on [Absolute n] / [Top_k n] with [n < 1]. *)

val record_query : t -> peer:int -> identifier:int -> unit
(** One identifier lookup served by [peer]: bumps the peer's cumulative
    load and the identifier's windowed score (rotating the window when
    full). *)

val record_entries : t -> peer:int -> int -> unit
(** [record_entries t ~peer n]: [n] entries stored at [peer] (a publish,
    cache insert or bucket copy landed there). No-op when [n = 0]. *)

val total_queries : t -> int
(** All lookups ever recorded (not windowed). *)

val peer_load : t -> int -> int
(** Cumulative lookups served by a peer; 0 for unknown peers. *)

val peer_entries : t -> int -> int
(** Cumulative entries stored at a peer; 0 for unknown peers. *)

val hot_score : t -> int -> int
(** The identifier's count over the current plus previous window. *)

val windowed_scores : t -> (int * int) list
(** Every identifier seen in either window with its combined score, each
    once, in {e no particular order}. Consumed by the migration planner,
    which only sums the scores of each half of a range slice to decide
    which is hotter, so it needs no sort. *)

val is_hot : t -> int -> bool

val recomputations : t -> int
(** How many times the lazy [Top_k] hot set has been rebuilt from
    scratch. The cache is invalidated only when window contents can
    actually change the set (a window rotation, or a recorded identifier
    outside the set whose new score outranks the weakest member), so on
    stable workloads this stays flat while [is_hot] checks keep coming —
    exposed so tests can pin that. *)

val hot_identifiers : t -> int list
(** Identifiers currently hot, by descending score (ties ascending). *)

val imbalance : int list -> float
(** [imbalance loads] is max/mean over the whole population (zeros
    included) — the load-imbalance ratio the bench reports. 0 when the
    list is empty or all loads are 0. *)

val load_imbalance : t -> peers:int list -> float
(** [imbalance] of [peer_load] over the given peer population. *)
