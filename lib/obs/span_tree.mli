(** Traces as span trees, and the per-query message-conservation check.

    A span tree is built either from the in-memory {!Trace} recorder
    ({!of_recorded}) or by a reader of the JSONL export (bin/trace.exe),
    so tests and the offline analyser run the very same check.

    The convention the instrumentation maintains: a ["query"] span's
    ["messages"] attribute is its claimed total, and every message the
    query paid for is attributed exactly once below it — ["msgs"] on
    serve spans (single-query round), ["msgs"] on fresh route spans and
    contact events (batch round). Shared batch work referenced via
    [*_memo_hit]/[*_coalesced] events carries no ["msgs"], so coalesced
    queries sum to their marginal cost. *)

type event = { event_name : string; event_attrs : (string * Json.t) list }

type span = {
  id : int;
  parent : int option;
  name : string;
  start : int;
  stop : int;
  attrs : (string * Json.t) list;
  events : event list;
}

val of_recorded : Trace.span -> span
(** A span of the in-memory recorder, as the JSONL export writes it. *)

val attr_int : string -> (string * Json.t) list -> int option

val children_of : span list -> span -> span list
(** [children_of spans] indexes the parent links once; the returned
    function lists a span's children in recording order. *)

val descendants : (span -> span list) -> span -> span list
(** Every span strictly below [s], depth first. *)

val attributed_msgs : (span -> span list) -> span -> int
(** Sum of the ["msgs"] attributions on [s]'s events and on every
    descendant span and its events. *)

type mismatch = { query : int; claimed : int; attributed : int }
(** A query span (by id) whose ["messages"] attribute differs from the
    sum its span tree attributes. *)

type conservation = {
  queries : int;  (** ["query"] spans seen *)
  messages : int;  (** sum of their ["messages"] attributes *)
  mismatches : mismatch list;  (** in query order; empty = conserved *)
}

val conservation : (span -> span list) -> span list -> conservation
(** [conservation children spans] checks every ["query"] span among
    [spans] that carries a ["messages"] attribute. *)
