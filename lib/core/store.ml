type entry = {
  range : Rangeset.Range.t;
  partition : Relational.Partition.t option;
}

type policy = Unbounded | Lru of int | Fifo of int

(* Entries carry a stamp from a per-store logical clock: insertion time
   under FIFO, last-use time under LRU. Eviction scans for the minimum
   stamp — O(entries), fine at simulation scale and free when unbounded. *)
type stamped = { entry : entry; mutable stamp : int }

type t = {
  policy : policy;
  buckets : stamped list Chord.Id.Tbl.t;
  mutable entries : int;
  mutable clock : int;
  mutable evictions : int;
}

let capacity_of = function
  | Unbounded -> max_int
  | Lru n | Fifo n -> n

let create ?(policy = Unbounded) () =
  if capacity_of policy < 1 then
    invalid_arg "Store.create: capacity must be at least 1";
  {
    policy;
    buckets = Chord.Id.Tbl.create 16;
    entries = 0;
    clock = 0;
    evictions = 0;
  }

let policy t = t.policy

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let raw_bucket t identifier =
  Option.value (Chord.Id.Tbl.find_opt t.buckets identifier) ~default:[]

let bucket t ~identifier =
  let stamped = raw_bucket t identifier in
  (match t.policy with
  | Lru _ ->
    let now = tick t in
    List.iter (fun s -> s.stamp <- now) stamped
  | Unbounded | Fifo _ -> ());
  List.map (fun s -> s.entry) stamped

let peek_bucket t ~identifier =
  List.map (fun s -> s.entry) (raw_bucket t identifier)

(* The bucket's list itself: every insertion, eviction or removal puts a
   new list (or none) in the table, and list cells are immutable, so the
   same list means the same entries. *)
type token = stamped list

let token t ~identifier = raw_bucket t identifier
let same_token (a : token) b = a == b

let remove_bucket t ~identifier =
  match Chord.Id.Tbl.find_opt t.buckets identifier with
  | None -> 0
  | Some stamped ->
    Chord.Id.Tbl.remove t.buckets identifier;
    let n = List.length stamped in
    t.entries <- t.entries - n;
    n

let has_range stamped range =
  List.exists (fun s -> Rangeset.Range.equal s.entry.range range) stamped

let mem t ~identifier ~range = has_range (raw_bucket t identifier) range

(* Remove the entry with the smallest stamp anywhere in the store. *)
let evict_one t =
  let victim = ref None in
  Chord.Id.Tbl.iter
    (fun identifier stamped ->
      List.iter
        (fun s ->
          match !victim with
          | Some (_, best) when best.stamp <= s.stamp -> ()
          | Some _ | None -> victim := Some (identifier, s))
        stamped)
    t.buckets;
  match !victim with
  | None -> ()
  | Some (identifier, s) ->
    let remaining = List.filter (fun s' -> s' != s) (raw_bucket t identifier) in
    if remaining = [] then Chord.Id.Tbl.remove t.buckets identifier
    else Chord.Id.Tbl.replace t.buckets identifier remaining;
    t.entries <- t.entries - 1;
    t.evictions <- t.evictions + 1

let insert t ~identifier entry =
  if mem t ~identifier ~range:entry.range then false
  else begin
    while t.entries >= capacity_of t.policy do
      evict_one t
    done;
    (* Re-read the bucket: the victim may have sat in this very one. *)
    let stamped = { entry; stamp = tick t } in
    Chord.Id.Tbl.replace t.buckets identifier
      (stamped :: raw_bucket t identifier);
    t.entries <- t.entries + 1;
    true
  end

(* The bucket is read once and written back once, except around an
   eviction: the table must be current for the victim scan, and the
   bucket is re-read afterwards because the victim may have sat in this
   very one. Same table mutations, in the same order, as [insert] on
   each entry in turn — which stays the reference it is tested against. *)
let insert_all t ~identifier entries =
  let capacity = capacity_of t.policy in
  let bucket = ref (raw_bucket t identifier) in
  let inserted = ref 0 and dirty = ref false in
  List.iter
    (fun entry ->
      if not (has_range !bucket entry.range) then begin
        if t.entries >= capacity then begin
          if !dirty then Chord.Id.Tbl.replace t.buckets identifier !bucket;
          while t.entries >= capacity do
            evict_one t
          done;
          bucket := raw_bucket t identifier
        end;
        bucket := { entry; stamp = tick t } :: !bucket;
        dirty := true;
        t.entries <- t.entries + 1;
        incr inserted
      end)
    entries;
  if !dirty then Chord.Id.Tbl.replace t.buckets identifier !bucket;
  !inserted

let identifiers t =
  Chord.Id.Tbl.fold (fun identifier _ acc -> identifier :: acc) t.buckets []
  |> List.sort Int.compare

let all_entries t =
  Chord.Id.Tbl.fold
    (fun _ stamped acc -> List.rev_append (List.map (fun s -> s.entry) stamped) acc)
    t.buckets []

let bucket_count t = Chord.Id.Tbl.length t.buckets
let entry_count t = t.entries
let evictions t = t.evictions
