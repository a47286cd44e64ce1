(* Replica sync records (DESIGN decision 11). A replica copy is skipped
   while its record is current, which is sound only if a current record
   always describes a replica holding every range of the home bucket.
   Churn streams check that after every operation; a hand case pins that
   a copy which evicts leaves no record behind. *)

module Range = Rangeset.Range
module Sys_ = P2prange.System
module Config = P2prange.Config
module Peer = P2prange.Peer
module Store = P2prange.Store

let mk lo hi = Range.make ~lo ~hi

(* Current records whose replica misses a range of the home bucket. *)
let unsound_records s =
  List.filter_map
    (fun (identifier, position, home, current) ->
      let replica = Sys_.peer_by_id s position in
      let holds entry =
        Store.mem (Peer.store replica) ~identifier ~range:entry.Store.range
      in
      if
        current
        && not
             (List.for_all holds (Store.peek_bucket (Peer.store home) ~identifier))
      then Some (identifier, position)
      else None)
    (Sys_.sync_records s)

let churn_config policy =
  Config.default
  |> Config.with_balancing
       (Config.Replicate_and_migrate
          {
            replicate =
              { Config.r = 2; hot = Balance.Tracker.Absolute 3; window = 64 };
            migrate =
              { Config.default_migrate with check_every = 8; min_share = 2 };
          })
  |> Config.with_hinted_handoff true
  |> Config.with_store_policy policy

(* A seeded stream over 24 peers: batches and single queries over a small
   hot pool, publishes, fail/recover (recovery runs repair), explicit
   repairs. At most four peers are down at once. *)
let replay ~policy ~seed () =
  let n_peers = 24 in
  let s = Sys_.create ~config:(churn_config policy) ~seed ~n_peers () in
  let rng = Prng.Splitmix.create seed in
  let pool =
    Array.init 12 (fun i -> mk (i * 70) ((i * 70) + 20 + (i mod 4 * 15)))
  in
  let down = Queue.create () in
  let is_down p = Queue.fold (fun acc q -> acc || q == p) false down in
  let rec live () =
    let p = List.nth (Sys_.peers s) (Prng.Splitmix.int rng n_peers) in
    if is_down p then live () else p
  in
  let pick () = pool.(Prng.Splitmix.int rng (Array.length pool)) in
  let current = ref 0 and parked = ref 0 in
  for step = 1 to 400 do
    let roll = Prng.Splitmix.int rng 100 in
    let op =
      if roll < 35 then begin
        ignore (Sys_.query_batch s ~from:(live ()) (List.init 6 (fun _ -> pick ())));
        "batch"
      end
      else if roll < 50 then begin
        ignore (Sys_.query s ~from:(live ()) (pick ()));
        "query"
      end
      else if roll < 75 then begin
        let range =
          if Prng.Splitmix.int rng 2 = 0 then pick ()
          else
            let lo = Prng.Splitmix.int rng 900 in
            mk lo (lo + 1 + Prng.Splitmix.int rng 60)
        in
        ignore (Sys_.publish s ~from:(live ()) range);
        "publish"
      end
      else if roll < 87 && Queue.length down < 4 then begin
        let p = live () in
        Sys_.fail_peer s p;
        Queue.push p down;
        "fail"
      end
      else if roll < 97 && not (Queue.is_empty down) then begin
        Sys_.recover_peer s (Queue.pop down);
        "recover"
      end
      else begin
        Sys_.repair s;
        "repair"
      end
    in
    parked := Int.max !parked (Sys_.parked_hints s);
    List.iter
      (fun (_, _, _, c) -> if c then incr current)
      (Sys_.sync_records s);
    match unsound_records s with
    | [] -> ()
    | (identifier, position) :: _ ->
      Alcotest.failf "step %d (%s): current record of %d at %d misses a home range"
        step op identifier position
  done;
  (* Not vacuous: records were kept, and the stream parked hints and
     migrated slices. *)
  Alcotest.(check bool) "current records seen" true (!current > 0);
  Alcotest.(check bool) "hints parked" true (!parked > 0);
  Alcotest.(check bool) "slices migrated" true (Sys_.migrations s > 0);
  s

let sound_unbounded () =
  List.iter (fun seed -> ignore (replay ~policy:Store.Unbounded ~seed ())) [ 3L; 8L ]

let sound_lru () =
  List.iter
    (fun seed ->
      let s = replay ~policy:(Store.Lru 3) ~seed () in
      Alcotest.(check bool) "stores evicted" true (Sys_.total_evictions s > 0))
    [ 3L; 8L ]

(* The first copy onto a full replica store evicts, so it keeps no record;
   the copy onto an empty one keeps a current record. The next copy onto
   the first replica finds the range already there, evicts nothing and
   keeps a record. *)
let evicting_copy_keeps_no_record () =
  let config =
    { Config.default with
      Config.l = 1;
      balancing =
        Config.Replicate { r = 2; hot = Balance.Tracker.Absolute 2; window = 64 };
      store_policy = Store.Lru 3;
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:16 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let ring = Sys_.ring s in
  let first = Chord.Ring.successor ring (Peer.id owner) in
  let second = Chord.Ring.successor ring first in
  let full = Peer.store (Sys_.peer_by_id s first) in
  List.iter
    (fun i ->
      ignore
        (Store.insert full ~identifier:(identifier + 1 + i)
           { Store.range = mk i (i + 1); partition = None }
          : bool))
    [ 0; 1; 2 ];
  let other =
    List.find
      (fun p -> not (List.mem (Peer.id p) [ Peer.id owner; first; second ]))
      (Sys_.peers s)
  in
  ignore (Sys_.publish s ~from:other range);
  let record position =
    List.find_map
      (fun (i, p, home, current) ->
        if i = identifier && p = position then Some (Peer.id home, current)
        else None)
      (Sys_.sync_records s)
  in
  let queries = ref 0 in
  while Sys_.replicated_buckets s = 0 && !queries < 10 do
    ignore (Sys_.query s ~from:other range);
    incr queries
  done;
  Alcotest.(check int) "replicated" 1 (Sys_.replicated_buckets s);
  Alcotest.(check int) "the copy evicted" 1 (Store.evictions full);
  Alcotest.(check bool) "range copied" true (Store.mem full ~identifier ~range);
  Alcotest.(check (option (pair int bool))) "no record after the evicting copy"
    None (record first);
  Alcotest.(check (option (pair int bool))) "record after the clean copy"
    (Some (Peer.id owner, true)) (record second);
  ignore (Sys_.query s ~from:other range);
  Alcotest.(check int) "no further eviction" 1 (Store.evictions full);
  Alcotest.(check (option (pair int bool))) "record after a copy that inserts nothing"
    (Some (Peer.id owner, true)) (record first)

let suite =
  [
    Alcotest.test_case "unbounded: current records hold the home bucket" `Quick
      sound_unbounded;
    Alcotest.test_case "lru 3: current records hold the home bucket" `Quick
      sound_lru;
    Alcotest.test_case "a copy that evicts keeps no record" `Quick
      evicting_copy_keeps_no_record;
  ]
