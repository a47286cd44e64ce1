module Range = Rangeset.Range

(* One sparse table per hash function: table.(j).(i) is the minimum permuted
   value over domain positions [i, i + 2^j). *)
type rmq = int array array

type t = {
  scheme : Scheme.t;
  domain : Range.t;
  tables : rmq array array; (* mirrors Scheme.functions: l rows of k *)
}

let floor_log2 n =
  let rec go n acc = if n <= 1 then acc else go (n / 2) (acc + 1) in
  go n 0

let build_rmq fn domain =
  let d = Range.cardinal domain in
  let base = Array.init d (fun i -> Family.apply fn (Range.lo domain + i)) in
  let levels = floor_log2 d + 1 in
  let tables = Array.make levels base in
  for j = 1 to levels - 1 do
    let span = 1 lsl j in
    let prev = tables.(j - 1) in
    let width = d - span + 1 in
    if width <= 0 then tables.(j) <- [||]
    else
      tables.(j) <-
        Array.init width (fun i -> Int.min prev.(i) prev.(i + (span / 2)))
  done;
  tables

let build scheme ~domain =
  let tables =
    Array.map (Array.map (fun fn -> build_rmq fn domain)) (Scheme.functions scheme)
  in
  { scheme; domain; tables }

let scheme t = t.scheme
let domain t = t.domain

let m_queries = Obs.Metrics.counter "lsh.domain_cache.queries"

let identifiers t range =
  if not (Range.contains ~outer:t.domain ~inner:range) then
    invalid_arg "Domain_cache.identifiers: range outside the cached domain";
  Obs.Metrics.incr m_queries;
  let pos = Range.lo range - Range.lo t.domain in
  let len = Range.cardinal range in
  (* The sparse-table minimum over [pos, pos + len) is the smaller of two
     overlapping 2^j-wide blocks; j and the second block's offset depend
     only on the range, so they are shared by all l·k functions. *)
  let j = floor_log2 len in
  let pos' = pos + len - (1 lsl j) in
  let range_min (rmq : rmq) =
    let level = rmq.(j) in
    Int.min level.(pos) level.(pos')
  in
  let fold =
    match Scheme.combining t.scheme with
    | Scheme.Xor -> fun acc rmq -> acc lxor range_min rmq
    | Scheme.Sum_mod -> fun acc rmq -> acc + range_min rmq
  in
  Array.to_list
    (Array.map
       (fun row -> Array.fold_left fold 0 row land 0xFFFFFFFF)
       t.tables)
