(* lib/balance and its integration into System: windowed hot-bucket
   detection, successor replica placement, virtual nodes, and the two
   headline properties of the replication extension — it reduces the
   max/mean load-imbalance ratio under a Zipf workload, and it preserves
   recall when the hottest peers fail. *)

module Range = Rangeset.Range
module Tracker = Balance.Tracker
module Replicas = Balance.Replicas
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result
module Config = P2prange.Config
module Peer = P2prange.Peer

let mk lo hi = Range.make ~lo ~hi

(* --- Tracker ------------------------------------------------------- *)

let tracker_counts () =
  let t = Tracker.create (Tracker.Absolute 3) in
  Tracker.record_query t ~peer:1 ~identifier:10;
  Tracker.record_query t ~peer:1 ~identifier:10;
  Tracker.record_query t ~peer:2 ~identifier:11;
  Tracker.record_entries t ~peer:1 1;
  Tracker.record_entries t ~peer:3 0;
  Alcotest.(check int) "total queries" 3 (Tracker.total_queries t);
  Alcotest.(check int) "peer 1 load" 2 (Tracker.peer_load t 1);
  Alcotest.(check int) "peer 2 load" 1 (Tracker.peer_load t 2);
  Alcotest.(check int) "unknown peer load" 0 (Tracker.peer_load t 99);
  Alcotest.(check int) "peer 1 entries" 1 (Tracker.peer_entries t 1);
  Alcotest.(check int) "zero entries recorded" 0 (Tracker.peer_entries t 3);
  Tracker.record_entries t ~peer:1 2;
  Alcotest.(check int) "peer 1 entries after a copy" 3
    (Tracker.peer_entries t 1);
  Alcotest.(check int) "hot score" 2 (Tracker.hot_score t 10);
  Alcotest.(check bool) "below threshold" false (Tracker.is_hot t 10)

let tracker_window_rotation () =
  (* window = 4: scores span the current plus the last full window, so
     hotness decays two rotations after the lookups stop. *)
  let t = Tracker.create ~window:4 (Tracker.Absolute 3) in
  for _ = 1 to 3 do
    Tracker.record_query t ~peer:0 ~identifier:1
  done;
  Alcotest.(check bool) "hot while hammered" true (Tracker.is_hot t 1);
  (* 4th lookup fills the window; id 1's count moves to [previous]. *)
  Tracker.record_query t ~peer:0 ~identifier:2;
  Alcotest.(check int) "score survives one rotation" 3 (Tracker.hot_score t 1);
  Alcotest.(check bool) "still hot from previous window" true
    (Tracker.is_hot t 1);
  for _ = 1 to 4 do
    Tracker.record_query t ~peer:0 ~identifier:9
  done;
  Alcotest.(check int) "score gone after two rotations" 0 (Tracker.hot_score t 1);
  Alcotest.(check bool) "cooled" false (Tracker.is_hot t 1);
  Alcotest.(check bool) "the new hammered id is hot" true (Tracker.is_hot t 9)

let tracker_top_k () =
  let t = Tracker.create ~window:100 (Tracker.Top_k 2) in
  let hit id n =
    for _ = 1 to n do
      Tracker.record_query t ~peer:0 ~identifier:id
    done
  in
  hit 5 4;
  hit 7 3;
  hit 9 1;
  Alcotest.(check bool) "rank 1 hot" true (Tracker.is_hot t 5);
  Alcotest.(check bool) "rank 2 hot" true (Tracker.is_hot t 7);
  Alcotest.(check bool) "rank 3 cold" false (Tracker.is_hot t 9);
  Alcotest.(check (list int)) "descending scores" [ 5; 7 ]
    (Tracker.hot_identifiers t);
  (* Ties break toward the smaller identifier. *)
  hit 9 2;
  Alcotest.(check bool) "tie: smaller id wins" true (Tracker.is_hot t 7);
  Alcotest.(check bool) "tie: larger id loses" false (Tracker.is_hot t 9)

let tracker_imbalance () =
  Alcotest.(check (float 0.0)) "empty" 0.0 (Tracker.imbalance []);
  Alcotest.(check (float 0.0)) "all idle" 0.0 (Tracker.imbalance [ 0; 0; 0 ]);
  (* max 4 over mean 2. *)
  Alcotest.(check (float 1e-9)) "max over mean" 2.0
    (Tracker.imbalance [ 4; 0; 2 ]);
  Alcotest.(check (float 1e-9)) "uniform is 1" 1.0
    (Tracker.imbalance [ 3; 3; 3 ])

let tracker_validation () =
  Alcotest.check_raises "window"
    (Invalid_argument "Tracker.create: window must be >= 1") (fun () ->
      ignore (Tracker.create ~window:0 (Tracker.Absolute 1)));
  Alcotest.check_raises "absolute"
    (Invalid_argument "Tracker.create: absolute threshold must be >= 1")
    (fun () -> ignore (Tracker.create (Tracker.Absolute 0)));
  Alcotest.check_raises "top-k"
    (Invalid_argument "Tracker.create: top-k must be >= 1") (fun () ->
      ignore (Tracker.create (Tracker.Top_k 0)))

(* Regression for the hot-cache thrash bug: [record_query] used to bump
   [revision] unconditionally, so the lazily-built Top_k set was rebuilt
   on every [is_hot] check. The fix invalidates only when window contents
   can actually change the set (a rotation, or a recorded non-member
   outranking the weakest member). Pin (a) answers identical to a
   from-scratch reference across a mixed stream, and (b) zero rebuilds
   under member-only traffic. *)
let tracker_cache_invalidation () =
  let window = 32 and k = 3 in
  let t = Tracker.create ~window (Tracker.Top_k k) in
  (* Reference model: replay the stream into explicit windows and rank
     from scratch on every probe. *)
  let current = Hashtbl.create 16 and previous = Hashtbl.create 16 in
  let in_window = ref 0 in
  let ref_record id =
    Hashtbl.replace current id
      (1 + Option.value (Hashtbl.find_opt current id) ~default:0);
    incr in_window;
    if !in_window >= window then begin
      Hashtbl.reset previous;
      Hashtbl.iter (Hashtbl.replace previous) current;
      Hashtbl.reset current;
      in_window := 0
    end
  in
  let ref_score id =
    Option.value (Hashtbl.find_opt current id) ~default:0
    + Option.value (Hashtbl.find_opt previous id) ~default:0
  in
  let ref_is_hot id =
    let ids = Hashtbl.create 16 in
    Hashtbl.iter (fun i _ -> Hashtbl.replace ids i ()) current;
    Hashtbl.iter (fun i _ -> Hashtbl.replace ids i ()) previous;
    let ranked =
      Hashtbl.fold (fun i () acc -> (i, ref_score i) :: acc) ids []
      |> List.sort (fun (ia, sa) (ib, sb) ->
             if sa <> sb then Int.compare sb sa else Int.compare ia ib)
      |> List.filteri (fun i _ -> i < k)
    in
    List.exists (fun (i, s) -> i = id && s > 0) ranked
  in
  let probes = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let rng = Prng.Splitmix.create 99L in
  for _ = 1 to 500 do
    let id = 1 + Prng.Splitmix.int rng 8 in
    Tracker.record_query t ~peer:0 ~identifier:id;
    ref_record id;
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (Printf.sprintf "is_hot %d agrees with reference" id)
          (ref_is_hot id) (Tracker.is_hot t id))
      probes
  done;
  Alcotest.(check bool) "cache was exercised" true (Tracker.recomputations t > 0);
  (* Stability: three clear leaders in one huge window (no rotations).
     Member traffic cannot change the set, so the cache must not rebuild. *)
  let t2 = Tracker.create ~window:100_000 (Tracker.Top_k 3) in
  List.iter
    (fun id ->
      for _ = 1 to 10 do
        Tracker.record_query t2 ~peer:0 ~identifier:id
      done)
    [ 1; 2; 3 ];
  Tracker.record_query t2 ~peer:0 ~identifier:9;
  ignore (Tracker.is_hot t2 1);
  let baseline = Tracker.recomputations t2 in
  for _ = 1 to 200 do
    Tracker.record_query t2 ~peer:0 ~identifier:2;
    Alcotest.(check bool) "leader stays hot" true (Tracker.is_hot t2 2);
    Alcotest.(check bool) "cold stays cold" false (Tracker.is_hot t2 9)
  done;
  Alcotest.(check int) "member traffic never rebuilds" baseline
    (Tracker.recomputations t2);
  (* A newcomer that outranks the weakest member does invalidate. *)
  for _ = 1 to 11 do
    Tracker.record_query t2 ~peer:0 ~identifier:9
  done;
  Alcotest.(check bool) "newcomer enters the set" true (Tracker.is_hot t2 9);
  Alcotest.(check bool) "weakest member evicted" false (Tracker.is_hot t2 3)

(* --- Replicas ------------------------------------------------------ *)

let five_node_view () =
  Replicas.of_ring (Chord.Ring.create ~ids:[ 100; 200; 300; 400; 500 ])

let replicas_on_ring () =
  let view = five_node_view () in
  Alcotest.(check (list int)) "owner then nearest successors"
    [ 200; 300; 400 ]
    (Replicas.replica_set view ~identifier:150 ~r:2 ());
  Alcotest.(check (list int)) "wraps around the ring" [ 500; 100; 200 ]
    (Replicas.replica_set view ~identifier:450 ~r:2 ());
  (* r larger than the ring: everyone except the owner, once. *)
  Alcotest.(check (list int)) "saturates at ring size"
    [ 200; 300; 400; 500; 100 ]
    (Replicas.replica_set view ~identifier:150 ~r:10 ())

let replicas_alive_filter () =
  let view = five_node_view () in
  Alcotest.(check (list int)) "dead successor skipped" [ 200; 400; 500 ]
    (Replicas.replica_set view
       ~alive:(fun id -> id <> 300)
       ~identifier:150 ~r:2 ());
  (* The owner heads the list even when dead — the caller decides. *)
  Alcotest.(check (list int)) "dead owner still heads" [ 200; 300; 400 ]
    (Replicas.replica_set view
       ~alive:(fun id -> id <> 200)
       ~identifier:150 ~r:2 ())

let replicas_group_dedup () =
  let view = five_node_view () in
  (* 300 and 400 are virtual positions of one physical peer: only the
     first counts, so both replicas land on distinct peers. *)
  let group id = if id = 300 || id = 400 then 34 else id in
  Alcotest.(check (list int)) "grouped duplicates skipped" [ 200; 300; 500 ]
    (Replicas.replica_set view ~group ~identifier:150 ~r:2 ());
  Alcotest.check_raises "r validation"
    (Invalid_argument "Replicas.replica_set: r must be >= 1") (fun () ->
      ignore (Replicas.replica_set view ~identifier:150 ~r:0 ()))

(* --- Virtual nodes ------------------------------------------------- *)

let virtual_positions () =
  let name = "peer-3" in
  Alcotest.(check (list int)) "v = 1 is the plain SHA-1 placement"
    [ Chord.Id.of_name name ]
    (Balance.Virtual_nodes.positions ~name ~v:1);
  let ps = Balance.Virtual_nodes.positions ~name ~v:4 in
  Alcotest.(check int) "v positions" 4 (List.length ps);
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare ps));
  Alcotest.(check int) "position 0 first" (Chord.Id.of_name name) (List.hd ps);
  Alcotest.(check string) "position naming" "peer-3#2"
    (Balance.Virtual_nodes.position_name ~name 2);
  Alcotest.(check string) "position 0 is the bare name" "peer-3"
    (Balance.Virtual_nodes.position_name ~name 0);
  Alcotest.check_raises "v validation"
    (Invalid_argument "Virtual_nodes.positions: v must be >= 1") (fun () ->
      ignore (Balance.Virtual_nodes.positions ~name ~v:0))

let system_virtual_nodes () =
  let config = { Config.default with Config.virtual_nodes = 3 } in
  let s = Sys_.create ~config ~seed:7L ~n_peers:10 () in
  Alcotest.(check int) "peer count is physical" 10 (Sys_.peer_count s);
  Alcotest.(check int) "ring holds every position" 30
    (Chord.Ring.size (Sys_.ring s));
  (* Every virtual position of a peer resolves back to it. *)
  List.iter
    (fun p ->
      List.iter
        (fun position ->
          Alcotest.(check string) "position maps to its peer" (Peer.name p)
            (Peer.name (Sys_.peer_by_id s position)))
        (Balance.Virtual_nodes.positions ~name:(Peer.name p) ~v:3))
    (Sys_.peers s);
  (* The protocol still works end to end. *)
  let from = Sys_.peer_by_name s "peer-0" in
  let _ = Sys_.publish s ~from (mk 30 50) in
  let r = Sys_.query s ~from:(Sys_.peer_by_name s "peer-5") (mk 30 50) in
  Alcotest.(check bool) "query finds the published range" true
    (r.Query_result.matched <> None)

(* --- System integration -------------------------------------------- *)

let replicate_config =
  { Config.default with
    Config.balancing =
      Config.Replicate { r = 2; hot = Tracker.Absolute 3; window = 64 };
  }

let fail_and_alive () =
  let s = Sys_.create ~seed:7L ~n_peers:8 () in
  let p = Sys_.peer_by_name s "peer-2" in
  Alcotest.(check bool) "alive initially" true (Sys_.alive s p);
  Sys_.fail_peer s p;
  Alcotest.(check bool) "dead after fail" false (Sys_.alive s p);
  Alcotest.(check int) "no replication, no replica sets" 0
    (Sys_.replicated_buckets s);
  let other = Sys_.create_with_peers ~seed:7L [ "alpha"; "beta" ] in
  Alcotest.check_raises "unknown peer"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Unknown_peer;
         message = "System.fail_peer: unknown peer";
         context = [ ("peer", "alpha") ];
       })
    (fun () -> Sys_.fail_peer s (Sys_.peer_by_name other "alpha"))

(* With everyone alive, replication must be invisible in results: the two
   systems differ only in the [replication] knob and must answer every
   query identically (the "off by default means bit-identical" contract,
   exercised from the stronger side). *)
let replication_transparent_without_failures () =
  let off = Sys_.create ~seed:11L ~n_peers:24 () in
  let on = Sys_.create ~config:replicate_config ~seed:11L ~n_peers:24 () in
  let rng = Prng.Splitmix.create 5L in
  let stream =
    Workload.Query_workload.create
      (Workload.Query_workload.Zipf_hotspots { hotspots = 4; spread = 8; s = 1.0 })
      ~domain:Config.default.Config.domain ~seed:5L
  in
  for _ = 1 to 400 do
    let name = Printf.sprintf "peer-%d" (Prng.Splitmix.int rng 24) in
    let range = Workload.Query_workload.next stream in
    let a = Sys_.query off ~from:(Sys_.peer_by_name off name) range in
    let b = Sys_.query on ~from:(Sys_.peer_by_name on name) range in
    let matched_range r =
      Option.map
        (fun m -> m.P2prange.Matching.entry.P2prange.Store.range)
        r.Query_result.matched
    in
    Alcotest.(check bool) "same match" true
      (Option.equal Range.equal (matched_range a) (matched_range b));
    Alcotest.(check (float 0.0)) "same recall" a.Query_result.recall b.Query_result.recall;
    Alcotest.(check (float 0.0)) "same similarity" a.Query_result.similarity
      b.Query_result.similarity
  done;
  (* The equality above must not be vacuous: replication really ran. *)
  Alcotest.(check bool) "replica sets were formed" true
    (Sys_.replicated_buckets on > 0)

(* A hot bucket whose owner fails is still served from a replica. *)
let failover_serves_from_replica () =
  let config =
    { Config.default with
      Config.l = 1;
      balancing =
        Config.Replicate { r = 2; hot = Tracker.Absolute 3; window = 64 };
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:16 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let other =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from:other range in
  (* Hammer the range hot; the maintenance pass replicates its bucket. *)
  for _ = 1 to 4 do
    ignore (Sys_.query s ~from:other range)
  done;
  Alcotest.(check bool) "bucket replicated" true (Sys_.replicated_buckets s > 0);
  Sys_.fail_peer s owner;
  let r = Sys_.query s ~from:other range in
  Alcotest.(check bool) "match survives the owner" true (r.Query_result.matched <> None);
  Alcotest.(check (float 1e-9)) "exact recall from the replica" 1.0
    r.Query_result.recall;
  (* Control: without replication the same failure loses the bucket. *)
  let bare = Sys_.create ~config:{ config with Config.balancing = Config.No_balancing }
      ~seed:7L ~n_peers:16 () in
  let _ = Sys_.publish bare ~from:(Sys_.peer_by_name bare (Peer.name other)) range in
  Sys_.fail_peer bare (Sys_.peer_by_name bare (Peer.name owner));
  let r = Sys_.query bare ~from:(Sys_.peer_by_name bare (Peer.name other)) range in
  Alcotest.(check bool) "no replica, no answer" true (r.Query_result.matched = None)

(* The acceptance experiment, scaled down from bench/main.ml: Zipf(1.0)
   over 64 peers, identical seeds for both systems; replication must
   reduce the max/mean load-imbalance ratio, and after the 10% most
   loaded peers fail, recall with replication must be at least as good. *)
let zipf_imbalance_and_failed_recall () =
  let n_peers = 64 and n_queries = 3_000 in
  let shape =
    Workload.Query_workload.Zipf_hotspots { hotspots = 8; spread = 8; s = 1.0 }
  in
  let base =
    { Config.default with
      Config.matching = Config.Containment_match;
      spread_identifiers = true;
      l = 1;
    }
  in
  let on_config =
    { base with
      Config.balancing =
        Config.Replicate { r = 2; hot = Tracker.Absolute 8; window = 1024 };
    }
  in
  let off = Sys_.create ~config:base ~seed:42L ~n_peers () in
  let on = Sys_.create ~config:on_config ~seed:42L ~n_peers () in
  let run sys ~stream_seed ~n =
    let rng = Prng.Splitmix.create stream_seed in
    let stream =
      Workload.Query_workload.create shape ~domain:base.Config.domain
        ~seed:stream_seed
    in
    let live = Array.of_list (List.filter (Sys_.alive sys) (Sys_.peers sys)) in
    let total = ref 0.0 in
    for _ = 1 to n do
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      let r = Sys_.query sys ~from (Workload.Query_workload.next stream) in
      total := !total +. r.Query_result.recall
    done;
    !total /. float_of_int n
  in
  let _ = run off ~stream_seed:42L ~n:n_queries in
  let _ = run on ~stream_seed:42L ~n:n_queries in
  let imb_off = Sys_.load_imbalance off and imb_on = Sys_.load_imbalance on in
  Alcotest.(check bool)
    (Printf.sprintf "replication reduces imbalance (%.2f -> %.2f)" imb_off
       imb_on)
    true
    (imb_on < imb_off);
  (* Fail the top-10% most loaded peers of the OFF run in both systems. *)
  let victims =
    Sys_.peers off
    |> List.map (fun p ->
           (Tracker.peer_load (Sys_.tracker off) (Peer.id p), Peer.name p))
    |> List.sort (fun (la, na) (lb, nb) ->
           if la <> lb then Int.compare lb la else String.compare na nb)
    |> List.filteri (fun i _ -> i < n_peers / 10)
    |> List.map snd
  in
  List.iter
    (fun sys ->
      List.iter (fun name -> Sys_.fail_peer sys (Sys_.peer_by_name sys name)) victims)
    [ off; on ];
  let rec_off = run off ~stream_seed:1337L ~n:(n_queries / 4) in
  let rec_on = run on ~stream_seed:1337L ~n:(n_queries / 4) in
  Alcotest.(check bool)
    (Printf.sprintf "failed recall at least as good (%.3f vs %.3f)" rec_on
       rec_off)
    true
    (rec_on >= rec_off)

let suite =
  [
    Alcotest.test_case "tracker counts" `Quick tracker_counts;
    Alcotest.test_case "tracker window rotation" `Quick tracker_window_rotation;
    Alcotest.test_case "tracker top-k policy" `Quick tracker_top_k;
    Alcotest.test_case "imbalance ratio" `Quick tracker_imbalance;
    Alcotest.test_case "tracker validation" `Quick tracker_validation;
    Alcotest.test_case "tracker hot-cache invalidation" `Quick
      tracker_cache_invalidation;
    Alcotest.test_case "replica placement on a ring" `Quick replicas_on_ring;
    Alcotest.test_case "replica placement skips the dead" `Quick
      replicas_alive_filter;
    Alcotest.test_case "replica placement groups virtual nodes" `Quick
      replicas_group_dedup;
    Alcotest.test_case "virtual node positions" `Quick virtual_positions;
    Alcotest.test_case "system with virtual nodes" `Quick system_virtual_nodes;
    Alcotest.test_case "fail and alive" `Quick fail_and_alive;
    Alcotest.test_case "replication is invisible without failures" `Quick
      replication_transparent_without_failures;
    Alcotest.test_case "failover serves from a replica" `Quick
      failover_serves_from_replica;
    Alcotest.test_case "Zipf imbalance and failed recall" `Quick
      zipf_imbalance_and_failed_recall;
  ]
