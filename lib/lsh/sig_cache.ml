(* LRU-bounded memo of canonical-range signatures.

   An intrusive doubly-linked list keeps recency order (head = most
   recent, tail = eviction candidate) while a hashtable keyed by the
   canonical (lo, hi) pair gives O(1) lookup. Both [find] and [add]
   promote, so the tail is always the true least-recently-used entry. *)

(* Monomorphic probes on the (lo, hi) key. A local table because this
   library sits below [chord], whose [Chord.Id.Pair_tbl] is the same. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = Int.equal a c && Int.equal b d
  let hash = Hashtbl.hash
end)

type node = {
  key : int * int;
  ids : int list;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  table : node Key_tbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let c_hit = Obs.Metrics.counter "lsh.sig_cache.hit"
let c_miss = Obs.Metrics.counter "lsh.sig_cache.miss"
let c_evict = Obs.Metrics.counter "lsh.sig_cache.evictions"

let create ~capacity =
  if capacity < 1 then invalid_arg "Sig_cache.create: capacity must be >= 1";
  {
    capacity;
    table = Key_tbl.create (Int.min capacity 64);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Key_tbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t ~lo ~hi =
  match Key_tbl.find_opt t.table (lo, hi) with
  | Some n ->
    t.hits <- t.hits + 1;
    Obs.Metrics.incr c_hit;
    Obs.Trace.event_ii "sig_cache.hit" "lo" lo "hi" hi;
    unlink t n;
    push_front t n;
    Some n.ids
  | None ->
    t.misses <- t.misses + 1;
    Obs.Metrics.incr c_miss;
    Obs.Trace.event_ii "sig_cache.miss" "lo" lo "hi" hi;
    None

let add t ~lo ~hi ids =
  let key = (lo, hi) in
  (match Key_tbl.find_opt t.table key with
  | Some old ->
    unlink t old;
    Key_tbl.remove t.table key
  | None -> ());
  if Key_tbl.length t.table >= t.capacity then (
    match t.tail with
    | Some lru ->
      unlink t lru;
      Key_tbl.remove t.table lru.key;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr c_evict
    | None -> ());
  let n = { key; ids; prev = None; next = None } in
  Key_tbl.replace t.table key n;
  push_front t n

let find_or_compute t ~lo ~hi compute =
  match find t ~lo ~hi with
  | Some ids -> ids
  | None ->
    let ids = compute () in
    add t ~lo ~hi ids;
    ids
