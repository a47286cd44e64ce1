type t = int

let bits = 32
let modulus = 1 lsl bits

let is_valid id = 0 <= id && id < modulus

let of_name name = P2p_digest.Sha1.to_uint32 (P2p_digest.Sha1.digest_string name)

let add_pow2 id i =
  if i < 0 || i >= bits then invalid_arg "Id.add_pow2: exponent out of range";
  (id + (1 lsl i)) land (modulus - 1)

let distance_cw ~from ~to_ = (to_ - from) land (modulus - 1)

(* (lo, hi) circularly; when lo = hi the interval is the full ring minus the
   endpoint, per Chord's routing convention. *)
let in_interval_oo (x : t) ~lo ~hi =
  if lo = hi then x <> lo
  else if lo < hi then lo < x && x < hi
  else x > lo || x < hi

(* (lo, hi] circularly; when lo = hi it is the full ring, so that a
   single-node system owns every key. *)
let in_interval_oc (x : t) ~lo ~hi =
  if lo = hi then true
  else if lo < hi then lo < x && x <= hi
  else x > lo || x <= hi

let pp ppf id = Format.fprintf ppf "%08x" id

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d
  let hash = Hashtbl.hash
end)
