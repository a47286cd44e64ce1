(** Structured errors raised by the public API.

    Entry points ([Config.validate], [System.create], the peer lifecycle
    calls) used to raise bare [Invalid_argument] strings; callers
    embedding the library had to pattern-match message text to tell a
    config typo from a topology problem. Errors now carry a machine-
    readable code plus the source/query context that produced them —
    which field was wrong, which peer was unknown — in the style of
    database driver errors that attach the offending query.

    Truly-programmer-facing misuse (indexing a missing ring position)
    keeps its stdlib exceptions; [Error] is for the validated front
    doors. *)

type code =
  | Invalid_config  (** a {!Config.t} field fails {!Config.validate} *)
  | Invalid_topology
      (** the requested ring cannot be built: no peers, non-positive
          peer count, or a SHA-1 position collision *)
  | Unknown_peer  (** a peer handle from another system *)
  | Broken_invariant
      (** a whole-system consistency invariant does not hold; never
          raised — [System.check_invariants_detailed] {e returns} these
          as audit findings (surfaced by [bin/doctor.exe --json]) *)

type t = {
  code : code;
  message : string;  (** human-readable, stable across releases *)
  context : (string * string) list;
      (** the offending inputs, e.g. [("field", "k"); ("value", "0")] *)
}

exception Error of t

val code_name : code -> string
(** Stable lower-kebab tag: ["invalid-config"], ["invalid-topology"],
    ["unknown-peer"], ["broken-invariant"]. *)

val to_string : t -> string
(** ["[code] message (k=v, ...)"] — the rendering {!pp} and the
    registered [Printexc] printer both use. *)

val pp : Format.formatter -> t -> unit

val raise_error : ?context:(string * string) list -> code -> string -> 'a
(** Raise [Error] with the given parts. *)

val failf :
  ?context:(string * string) list ->
  code ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [Printf]-style {!raise_error}. *)
