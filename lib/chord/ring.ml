type t = {
  sorted : int array; (* node ids, ascending, distinct *)
  fingers : int array array; (* fingers.(idx).(i) = owner of sorted.(idx) + 2^i *)
}

(* Index of the owner of [key]: first node at or clockwise after key. *)
let owner_index (sorted : int array) key =
  let n = Array.length sorted in
  (* First index with sorted.(i) >= key, else wrap to 0. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < key then search (mid + 1) hi else search lo mid
  in
  let i = search 0 n in
  if i = n then 0 else i

let node_index sorted id =
  let i = owner_index sorted id in
  if sorted.(i) = id then i else raise Not_found

let create ~ids =
  if ids = [] then invalid_arg "Ring.create: no nodes";
  List.iter
    (fun id -> if not (Id.is_valid id) then invalid_arg "Ring.create: invalid id")
    ids;
  let sorted = Array.of_list (List.sort_uniq Int.compare ids) in
  if Array.length sorted <> List.length ids then
    invalid_arg "Ring.create: duplicate node identifiers";
  let fingers =
    Array.map
      (fun id ->
        Array.init Id.bits (fun i ->
            sorted.(owner_index sorted (Id.add_pow2 id i))))
      sorted
  in
  { sorted; fingers }

let of_names names = create ~ids:(List.map Id.of_name names)

let random rng ~n =
  if n <= 0 then invalid_arg "Ring.random: need at least one node";
  let module ISet = Set.Make (Int) in
  let rec draw set =
    if ISet.cardinal set = n then ISet.elements set
    else draw (ISet.add (Prng.Splitmix.int rng Id.modulus) set)
  in
  create ~ids:(draw ISet.empty)

let size t = Array.length t.sorted
let node_ids t = Array.copy t.sorted
let contains t id = try ignore (node_index t.sorted id : int); true with Not_found -> false

let owner t key = t.sorted.(owner_index t.sorted key)

let successor t id =
  let i = node_index t.sorted id in
  t.sorted.((i + 1) mod size t)

let predecessor t id =
  let i = node_index t.sorted id in
  t.sorted.((i + size t - 1) mod size t)

let successors t id n =
  if n < 0 then invalid_arg "Ring.successors: negative count";
  let i = node_index t.sorted id in
  let len = size t in
  List.init (Stdlib.min n (len - 1)) (fun k -> t.sorted.((i + k + 1) mod len))

let find_successor t id f =
  let i = node_index t.sorted id in
  let len = size t in
  let rec walk k =
    if k >= len then None
    else
      let s = t.sorted.((i + k) mod len) in
      if f s then Some s else walk (k + 1)
  in
  walk 1

let finger t id i =
  if i < 0 || i >= Id.bits then invalid_arg "Ring.finger: index out of range";
  t.fingers.(node_index t.sorted id).(i)

(* Highest finger of [n] strictly inside (n, key); [n] itself if none. *)
let closest_preceding_finger t n key =
  let row = t.fingers.(node_index t.sorted n) in
  let rec scan i =
    if i < 0 then n
    else
      let f = row.(i) in
      if Id.in_interval_oo f ~lo:n ~hi:key then f else scan (i - 1)
  in
  scan (Id.bits - 1)

let m_lookups = Obs.Metrics.counter "chord.ring.lookups"
let m_messages = Obs.Metrics.counter "chord.ring.messages"
let h_hops = Obs.Metrics.histogram "chord.ring.hops"

(* The closest-preceding-finger walk shared by [lookup] and [lookup_via];
   [learn] sees every node the route passes through (and the owner). *)
let route_loop t ?(learn = fun (_ : int) -> ()) ~key start hops0 =
  let rec route n hops =
    let succ = successor t n in
    if Id.in_interval_oc key ~lo:n ~hi:succ then begin
      learn succ;
      Obs.Trace.event_i "hop" "node" succ;
      (succ, hops + 1)
    end
    else begin
      let next = closest_preceding_finger t n key in
      let next = if next = n then succ else next in
      learn next;
      Obs.Trace.event_i "hop" "node" next;
      route next (hops + 1)
    end
  in
  route start hops0

let record result =
  let hops = snd result in
  Obs.Metrics.incr m_lookups;
  (* One message per hop plus the final reply to the requester. *)
  Obs.Metrics.add m_messages (hops + 1);
  Obs.Metrics.observe_int h_hops hops;
  result

let lookup t ~from ~key =
  if not (contains t from) then invalid_arg "Ring.lookup: unknown source node";
  Obs.Trace.with_span "chord.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let target = owner t key in
      let result =
        if target = from then (from, 0) else route_loop t ~key from 0
      in
      Obs.Trace.set_int "owner" (fst result);
      Obs.Trace.set_int "hops" (snd result);
      record result)

module Route_cache = struct
  type t = {
    known : unit Id.Tbl.t;
    mutable shortcuts : int;
    mutable full_walks : int;
  }

  let create () = { known = Id.Tbl.create 64; shortcuts = 0; full_walks = 0 }
  let learn t id = Id.Tbl.replace t.known id ()
  let known t = Id.Tbl.length t.known
  let shortcuts t = t.shortcuts
  let full_walks t = t.full_walks

  (* The known node that makes the most clockwise progress from [from]
     without passing the owner — the best address to contact directly. *)
  let best_shortcut t ~from ~target =
    Id.Tbl.fold
      (fun c () acc ->
        if c <> from && Id.in_interval_oc c ~lo:from ~hi:target then
          match acc with
          | Some b when Id.distance_cw ~from ~to_:b >= Id.distance_cw ~from ~to_:c
            ->
            acc
          | Some _ | None -> Some c
        else acc)
      t.known None
end

let m_cached_lookups = Obs.Metrics.counter "chord.ring.cached_lookups"
let m_shortcuts = Obs.Metrics.counter "chord.ring.shortcuts"

let lookup_via t cache ~from ~key =
  if not (contains t from) then
    invalid_arg "Ring.lookup_via: unknown source node";
  Obs.Trace.with_span "chord.lookup" (fun () ->
      Obs.Trace.set_int "from" from;
      Obs.Trace.set_int "key" key;
      let target = owner t key in
      Route_cache.learn cache from;
      Obs.Metrics.incr m_cached_lookups;
      let learn = Route_cache.learn cache in
      let result =
        if target = from then (from, 0)
        else begin
          (* A cached address is only worth a direct first hop when it beats
             the finger the plain walk would take anyway — so a cached lookup
             never routes longer than an uncached one. *)
          let plain_step =
            let f = closest_preceding_finger t from key in
            if f = from then successor t from else f
          in
          match Route_cache.best_shortcut cache ~from ~target with
          | Some c
            when Id.distance_cw ~from ~to_:c > Id.distance_cw ~from ~to_:plain_step
            ->
            cache.Route_cache.shortcuts <- cache.Route_cache.shortcuts + 1;
            Obs.Metrics.incr m_shortcuts;
            Obs.Trace.set_bool "shortcut" true;
            Obs.Trace.event_i "shortcut" "node" c;
            if c = target then (target, 1) else route_loop t ~learn ~key c 1
          | Some _ | None ->
            cache.Route_cache.full_walks <- cache.Route_cache.full_walks + 1;
            route_loop t ~learn ~key from 0
        end
      in
      Obs.Trace.set_int "owner" (fst result);
      Obs.Trace.set_int "hops" (snd result);
      record result)
