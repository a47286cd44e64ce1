type hot_policy = Absolute of int | Top_k of int

(* Cached top-k hot set. [floor] is the (score, id) rank of the weakest
   member at compute time when the set was full (k members), [None] when
   every positive-score identifier already fit. Member scores only grow
   between window rotations, so a newcomer that does not beat the stored
   floor cannot beat the live one either. *)
type cache = {
  rev : int;
  set : unit Chord.Id.Tbl.t;
  floor : (int * int) option;
}

type t = {
  policy : hot_policy;
  window : int;
  mutable in_window : int; (* lookups recorded into [current] so far *)
  (* Counters are [int ref] cells, so a bump is one probe. *)
  mutable current : int ref Chord.Id.Tbl.t; (* identifier -> window hits *)
  mutable previous : int ref Chord.Id.Tbl.t; (* last full window *)
  peer_loads : int ref Chord.Id.Tbl.t; (* peer -> cumulative served lookups *)
  peer_entries : int ref Chord.Id.Tbl.t; (* peer -> cumulative stored entries *)
  mutable total : int;
  (* Top-k hot sets are recomputed lazily; [revision] invalidates. *)
  mutable revision : int;
  mutable hot_cache : cache option;
  mutable recomputations : int;
}

let create ?(window = 1024) policy =
  if window < 1 then invalid_arg "Tracker.create: window must be >= 1";
  (match policy with
  | Absolute n ->
    if n < 1 then invalid_arg "Tracker.create: absolute threshold must be >= 1"
  | Top_k k -> if k < 1 then invalid_arg "Tracker.create: top-k must be >= 1");
  {
    policy;
    window;
    in_window = 0;
    current = Chord.Id.Tbl.create 64;
    previous = Chord.Id.Tbl.create 64;
    peer_loads = Chord.Id.Tbl.create 64;
    peer_entries = Chord.Id.Tbl.create 64;
    total = 0;
    revision = 0;
    hot_cache = None;
    recomputations = 0;
  }

let add table key n =
  match Chord.Id.Tbl.find_opt table key with
  | Some cell -> cell := !cell + n
  | None -> Chord.Id.Tbl.add table key (ref n)

let lookup_count table key =
  match Chord.Id.Tbl.find_opt table key with Some cell -> !cell | None -> 0

let hot_score t identifier =
  lookup_count t.current identifier + lookup_count t.previous identifier

(* Rank order used everywhere: score descending, identifier ascending. *)
let outranks ((sa : int), (ida : int)) (sb, idb) =
  sa > sb || (sa = sb && ida < idb)

let invalidate t = t.revision <- t.revision + 1

(* A recorded lookup can only change the top-k set when the identifier is
   outside it: members gaining score stay members, and nobody else moved.
   A newcomer enters only when the set was underfull or its bumped score
   now outranks the cached floor — everything else keeps the cache. *)
let note_recorded t identifier =
  match t.hot_cache with
  | Some c when c.rev = t.revision ->
    if not (Chord.Id.Tbl.mem c.set identifier) then begin
      match c.floor with
      | None -> invalidate t
      | Some floor ->
        if outranks (hot_score t identifier, identifier) floor then invalidate t
    end
  | Some _ | None -> ()

let record_query t ~peer ~identifier =
  add t.peer_loads peer 1;
  add t.current identifier 1;
  t.total <- t.total + 1;
  t.in_window <- t.in_window + 1;
  note_recorded t identifier;
  if t.in_window >= t.window then begin
    let retired = t.previous in
    t.previous <- t.current;
    Chord.Id.Tbl.reset retired;
    t.current <- retired;
    t.in_window <- 0;
    invalidate t
  end

let record_entries t ~peer n = if n > 0 then add t.peer_entries peer n

let total_queries t = t.total

let peer_load t peer = lookup_count t.peer_loads peer
let peer_entries t peer = lookup_count t.peer_entries peer

(* All identifiers seen in either window, with their combined scores, in
   no particular order: each identifier once, from [current] or else
   from [previous]. *)
let windowed_scores t =
  let from_current =
    Chord.Id.Tbl.fold (fun id _ l -> (id, hot_score t id) :: l) t.current []
  in
  Chord.Id.Tbl.fold
    (fun id n l -> if Chord.Id.Tbl.mem t.current id then l else (id, !n) :: l)
    t.previous from_current

(* The same pairs in rank order (score descending, identifier ascending). *)
let scored t =
  List.sort
    (fun (ida, sa) (idb, sb) ->
      if sa <> sb then Int.compare sb sa else Int.compare ida idb)
    (windowed_scores t)

let top_k_set t k =
  match t.hot_cache with
  | Some c when c.rev = t.revision -> c.set
  | Some _ | None ->
    t.recomputations <- t.recomputations + 1;
    let set = Chord.Id.Tbl.create k in
    let members = ref 0 in
    let weakest = ref None in
    List.iteri
      (fun i (id, score) ->
        if i < k && score > 0 then begin
          Chord.Id.Tbl.replace set id ();
          incr members;
          weakest := Some (score, id)
        end)
      (scored t);
    let floor = if !members = k then !weakest else None in
    t.hot_cache <- Some { rev = t.revision; set; floor };
    set

let recomputations t = t.recomputations

let is_hot t identifier =
  match t.policy with
  | Absolute n -> hot_score t identifier >= n
  | Top_k k -> Chord.Id.Tbl.mem (top_k_set t k) identifier

let hot_identifiers t =
  List.filter_map
    (fun (id, _) -> if is_hot t id then Some id else None)
    (scored t)

let imbalance loads =
  match loads with
  | [] -> 0.0
  | _ ->
    let total = List.fold_left ( + ) 0 loads in
    if total = 0 then 0.0
    else
      let mean = float_of_int total /. float_of_int (List.length loads) in
      float_of_int (List.fold_left Int.max 0 loads) /. mean

let load_imbalance t ~peers = imbalance (List.map (peer_load t) peers)
