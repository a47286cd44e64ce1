type spec = {
  check_every : int;
  overload : float;
  cooldown : int;
  min_share : int;
}

let validate_spec { check_every; overload; cooldown; min_share } =
  if check_every < 1 then invalid_arg "Migration: check_every must be >= 1";
  if not (Float.is_finite overload) || overload <= 1.0 then
    invalid_arg "Migration: overload factor must exceed 1.0";
  if cooldown < 0 then invalid_arg "Migration: cooldown must be >= 0";
  if min_share < 1 then invalid_arg "Migration: min_share must be >= 1"

type seg = { lo : Chord.Id.t; hi : Chord.Id.t; holder : int }

(* Planned hand-offs per sampling window on the metric timeline
   ([Obs.Series], off by default); the applying layer adds the per-peer
   attribution. *)
let s_planned_moves = Obs.Series.counter "balance.planned_moves"

(* Per ring position: the physical peer that owns it natively, and the
   segments its (predecessor, position] interval has been split into.
   The list always partitions the interval; every migration splits one
   segment in two, so slices stay contiguous and disjoint — and a slice
   is just a segment whose holder is not the native peer, which makes
   received slices re-splittable exactly like native remainders. *)
type position_state = { native : int; mutable segs : seg list }

type move = {
  position : Chord.Id.t;
  source : int;
  target : int;
  lo : Chord.Id.t;
  hi : Chord.Id.t;
}

type t = {
  spec : spec;
  mutable clock : int; (* queries ticked so far *)
  mutable rounds : int; (* planner rounds run so far *)
  mutable migrations : int;
  (* Serves this round by the physical peer that answered. Counters are
     [int ref] cells, so a bump is one probe. *)
  round_peer : int ref Chord.Id.Tbl.t;
  (* Serves this round by segment, keyed (position, seg.lo); untouched
     positions use the sentinel key (position, position) for their whole
     interval. Segment lists only change inside [plan], which also resets
     this table, so keys are stable within a round. *)
  round_seg : int ref Chord.Id.Pair_tbl.t;
  states : position_state Chord.Id.Tbl.t;
  (* peer -> round index through which it sits out (hysteresis). *)
  cooling : int Chord.Id.Tbl.t;
}

let create spec =
  validate_spec spec;
  {
    spec;
    clock = 0;
    rounds = 0;
    migrations = 0;
    round_peer = Chord.Id.Tbl.create 64;
    round_seg = Chord.Id.Pair_tbl.create 64;
    states = Chord.Id.Tbl.create 16;
    cooling = Chord.Id.Tbl.create 16;
  }

let migrations t = t.migrations
let rounds t = t.rounds

let slice_count t =
  Chord.Id.Tbl.fold
    (fun _ state acc ->
      acc
      + List.length (List.filter (fun s -> s.holder <> state.native) state.segs))
    t.states 0

let split_positions t =
  Chord.Id.Tbl.fold (fun position _ acc -> position :: acc) t.states []
  |> List.sort Int.compare

let segments t ~position =
  match Chord.Id.Tbl.find_opt t.states position with
  | None -> []
  | Some state -> List.map (fun (s : seg) -> (s.lo, s.hi, s.holder)) state.segs

let seg_of state identifier =
  List.find_opt
    (fun (s : seg) -> Chord.Id.in_interval_oc identifier ~lo:s.lo ~hi:s.hi)
    state.segs

let holder t ~position ~identifier =
  match Chord.Id.Tbl.find_opt t.states position with
  | None -> None
  | Some state -> (
    match seg_of state identifier with
    | Some s when s.holder <> state.native -> Some s.holder
    | Some _ | None -> None)

let peer_count t peer =
  match Chord.Id.Tbl.find_opt t.round_peer peer with
  | Some cell -> !cell
  | None -> 0

let seg_count t key =
  match Chord.Id.Pair_tbl.find_opt t.round_seg key with
  | Some cell -> !cell
  | None -> 0

let note_serve t ~position ~identifier ~peer =
  (match Chord.Id.Tbl.find_opt t.round_peer peer with
  | Some cell -> incr cell
  | None -> Chord.Id.Tbl.add t.round_peer peer (ref 1));
  let seg_key =
    match Chord.Id.Tbl.find_opt t.states position with
    | None -> (position, position)
    | Some state -> (
      match seg_of state identifier with
      | Some s -> (position, s.lo)
      | None -> (position, position))
  in
  match Chord.Id.Pair_tbl.find_opt t.round_seg seg_key with
  | Some cell -> incr cell
  | None -> Chord.Id.Pair_tbl.add t.round_seg seg_key (ref 1)

let cooling t peer =
  match Chord.Id.Tbl.find_opt t.cooling peer with
  | Some until -> until >= t.rounds
  | None -> false

(* One balancing round. Deterministic throughout: peers are scanned in
   the caller's (creation) order, so ties break identically run to run,
   and nothing draws randomness. At most one migration per round. *)
let plan t ~peers ~responsive ~positions ~predecessor ~scores =
  t.rounds <- t.rounds + 1;
  let peers = Array.of_list peers in
  let n = Array.length peers in
  let loads = Array.map (peer_count t) peers in
  let total = Array.fold_left ( + ) 0 loads in
  let decision =
    if total = 0 then None
    else begin
      let mean = float_of_int total /. float_of_int n in
      (* Exact to fix up front: cooling only changes once the round has
         decided, and [responsive] is a pure liveness test. *)
      let eligible =
        Array.map (fun p -> responsive p && not (cooling t p)) peers
      in
      (* Overloaded candidates, hottest first (stable, so ties keep the
         caller's creation order). A candidate that cannot shed — none of
         its segments served this round, or all too short to split — is
         skipped rather than starving the round. *)
      let candidates =
        let overloaded = ref [] in
        for i = n - 1 downto 0 do
          if
            eligible.(i)
            && loads.(i) >= t.spec.min_share
            && float_of_int loads.(i) >= t.spec.overload *. mean
          then overloaded := i :: !overloaded
        done;
        List.stable_sort
          (fun a b -> Int.compare loads.(b) loads.(a))
          !overloaded
      in
      (* The first least-loaded eligible peer other than the source. *)
      let target_for source =
        let best = ref (-1) in
        for i = 0 to n - 1 do
          if
            peers.(i) <> source && eligible.(i)
            && (!best < 0 || loads.(i) < loads.(!best))
          then best := i
        done;
        if !best < 0 then None else Some peers.(!best)
      in
      let attempt source =
        (* The busiest splittable segment the source holds this round —
           native remainders and received slices alike. Received slices
           live at positions the source does not own, so split positions
           are scanned globally (sorted, for deterministic tie-breaks). *)
        let splittable lo hi = Chord.Id.distance_cw ~from:lo ~to_:hi >= 2 in
        let consider best ~position ~key ~lo ~hi =
          let heat = seg_count t (position, key) in
          if heat = 0 || not (splittable lo hi) then best
          else
            match best with
            | Some (_, _, _, bh) when bh >= heat -> best
            | Some _ | None -> Some (position, lo, hi, heat)
        in
        (* Untouched positions of the source itself (sentinel key: the
           whole interval)… *)
        let best =
          List.fold_left
            (fun best position ->
              match Chord.Id.Tbl.find_opt t.states position with
              | Some _ -> best
              | None ->
                consider best ~position ~key:position
                  ~lo:(predecessor position) ~hi:position)
            None (positions source)
        in
        (* …then every segment the source holds at any split position. *)
        let best =
          Chord.Id.Tbl.fold
            (fun position state acc -> (position, state) :: acc)
            t.states []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.fold_left
               (fun best (position, state) ->
                 List.fold_left
                   (fun best (s : seg) ->
                     if s.holder = source then
                       consider best ~position ~key:s.lo ~lo:s.lo ~hi:s.hi
                     else best)
                   best state.segs)
               best
        in
        match best with
        | None -> None
        | Some (position, a, b, _) -> (
          match target_for source with
          | None -> None
          | Some target ->
            let len = Chord.Id.distance_cw ~from:a ~to_:b in
            let mid = (a + (len / 2)) mod Chord.Id.modulus in
            (* (a, mid] and (mid, b] partition (a, b]; hand off the half
               with the larger windowed score (ties toward the lower
               half), keeping the other with the source. *)
            let sc = scores () in
            let half_score ~lo ~hi =
              List.fold_left
                (fun acc (id, s) ->
                  if Chord.Id.in_interval_oc id ~lo ~hi then acc + s else acc)
                0 sc
            in
            let s_low = half_score ~lo:a ~hi:mid in
            let s_high = half_score ~lo:mid ~hi:b in
            let lo, hi, keep_lo, keep_hi =
              if s_low >= s_high then (a, mid, mid, b) else (mid, b, a, mid)
            in
            let state =
              match Chord.Id.Tbl.find_opt t.states position with
              | Some state -> state
              | None ->
                let state =
                  { native = source;
                    segs = [ { lo = a; hi = b; holder = source } ];
                  }
                in
                Chord.Id.Tbl.replace t.states position state;
                state
            in
            state.segs <-
              List.concat_map
                (fun (s : seg) ->
                  if s.lo = a && s.hi = b then
                    [
                      { lo; hi; holder = target };
                      { lo = keep_lo; hi = keep_hi; holder = s.holder };
                    ]
                  else [ s ])
                state.segs;
            let until = t.rounds + t.spec.cooldown in
            Chord.Id.Tbl.replace t.cooling source until;
            Chord.Id.Tbl.replace t.cooling target until;
            t.migrations <- t.migrations + 1;
            Obs.Series.incr s_planned_moves;
            Some { position; source; target; lo; hi })
      in
      List.find_map (fun i -> attempt peers.(i)) candidates
    end
  in
  (* [clear] keeps the bucket arrays: the next round fills them again. *)
  Chord.Id.Pair_tbl.clear t.round_seg;
  Chord.Id.Tbl.clear t.round_peer;
  decision

let tick t ~peers ~responsive ~positions ~predecessor ~scores =
  t.clock <- t.clock + 1;
  if t.clock mod t.spec.check_every = 0 then
    plan t ~peers ~responsive ~positions ~predecessor ~scores
  else None
