(* The batched query pipeline: batch-of-one bit-identity, signature-cache
   memoization, identifier dedupe, route/contact sharing, and composition
   with the fault plane and hot-bucket replication. *)

module Range = Rangeset.Range
module Config = P2prange.Config
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result

let mk lo hi = Range.make ~lo ~hi

let fresh_system ?(config = Config.default) ?(seed = 7L) ?(n_peers = 20) () =
  Sys_.create ~config ~seed ~n_peers ()

(* A small seeded workload with enough repeats to exercise every sharing
   layer: duplicate ranges (signature + identifier memo) and distinct
   ranges with shared owners (contact coalescing). *)
let workload =
  [
    mk 100 200; mk 400 450; mk 100 200; mk 0 50; mk 400 450;
    mk 700 900; mk 100 200; mk 320 360; mk 0 50; mk 550 600;
  ]

(* Every balancing point × both routing substrates × hinted handoff off
   and on. Replication and migration are tuned hot enough (hot at 3
   lookups, a migration round every 4 queries) to act within the small
   workload above. *)
let config_lattice =
  let replicate =
    { Config.r = 2; hot = Balance.Tracker.Absolute 3; window = 64 }
  in
  let migrate =
    { Config.default_migrate with check_every = 4; min_share = 2 }
  in
  let balancing =
    [
      ("none", Config.No_balancing);
      ("replicate", Config.Replicate replicate);
      ("migrate", Config.Migrate migrate);
      ("both", Config.Replicate_and_migrate { replicate; migrate });
    ]
  and substrates =
    [
      ("chord", Config.Chord);
      ("learned", Config.Learned Config.default_learned);
    ]
  in
  List.concat_map
    (fun (b, balancing) ->
      List.concat_map
        (fun (s, substrate) ->
          List.map
            (fun hinted ->
              ( Printf.sprintf "%s/%s/hints=%b" b s hinted,
                Config.default
                |> Config.with_balancing balancing
                |> Config.with_substrate substrate
                |> Config.with_hinted_handoff hinted ))
            [ false; true ])
        substrates)
    balancing

let seed_publishes sys =
  let from = Sys_.peer_by_name sys "peer-0" in
  List.iter
    (fun r -> ignore (Sys_.publish sys ~from r : Query_result.lookup_stats))
    [ mk 100 200; mk 380 470; mk 0 60; mk 650 950 ]

(* A batch of one must run exactly as a standalone query: same result
   record, same stored state afterwards, at every lattice point. *)
let batch_of_one_bit_identical () =
  List.iter
    (fun (point, config) ->
      let a = fresh_system ~config () and b = fresh_system ~config () in
      seed_publishes a;
      seed_publishes b;
      List.iter
        (fun r ->
          let single = Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r in
          match
            Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") [ r ]
          with
          | [ batched ] ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: [%d,%d] bit-identical" point (Range.lo r)
                 (Range.hi r))
              true (single = batched)
          | results ->
            Alcotest.failf "%s: batch of one returned %d results" point
              (List.length results))
        workload;
      Alcotest.(check int) (point ^ ": same stored state")
        (Sys_.total_entries a) (Sys_.total_entries b))
    config_lattice

let batch_empty () =
  let s = fresh_system () in
  Alcotest.(check int) "empty batch" 0
    (List.length (Sys_.query_batch s ~from:(Sys_.peer_by_name s "peer-0") []))

(* Fault-free batching shares lookup traffic but never changes answers:
   per-query matches, scores, recall and cache decisions are equal to the
   sequential run on an identically-seeded system; only messages drop. *)
let batch_matches_unbatched_fault_free () =
  List.iter
    (fun (point, config) ->
      let a = fresh_system ~config () and b = fresh_system ~config () in
      seed_publishes a;
      seed_publishes b;
      let singles =
        List.map
          (fun r -> Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r)
          workload
      in
      let batched =
        Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") workload
      in
      Alcotest.(check int) (point ^ ": one result per query")
        (List.length workload) (List.length batched);
      List.iteri
        (fun i (s, b) ->
          let tag fmt = Printf.sprintf "%s: query %d: %s" point i fmt in
          Alcotest.(check bool) (tag "same match") true
            (s.Query_result.matched = b.Query_result.matched);
          Alcotest.(check (float 0.0)) (tag "same similarity")
            s.Query_result.similarity b.Query_result.similarity;
          Alcotest.(check (float 0.0)) (tag "same recall")
            s.Query_result.recall b.Query_result.recall;
          Alcotest.(check bool) (tag "same cache decision")
            s.Query_result.cached b.Query_result.cached;
          Alcotest.(check (list int)) (tag "same identifiers")
            s.Query_result.stats.Query_result.identifiers
            b.Query_result.stats.Query_result.identifiers;
          Alcotest.(check int) (tag "all owners answered")
            s.Query_result.responders b.Query_result.responders)
        (List.combine singles batched);
      let total r =
        List.fold_left (fun acc q -> acc + Query_result.messages q) 0 r
      in
      Alcotest.(check bool) (point ^ ": batch spends strictly fewer messages")
        true
        (total batched < total singles);
      Alcotest.(check int) (point ^ ": same stored state")
        (Sys_.total_entries a) (Sys_.total_entries b))
    config_lattice

(* A duplicated range inside a batch replays the first occurrence's routes
   from the identifier memo and reuses its owner contacts, so the repeat
   is charged nothing. *)
let duplicate_queries_cost_nothing () =
  let s = fresh_system () in
  seed_publishes s;
  let from = Sys_.peer_by_name s "peer-5" in
  match Sys_.query_batch s ~from [ mk 100 200; mk 320 360; mk 100 200 ] with
  | [ first; _; repeat ] ->
    Alcotest.(check bool) "first occurrence pays" true
      (Query_result.messages first > 0);
    Alcotest.(check int) "repeat is free" 0 (Query_result.messages repeat);
    Alcotest.(check bool) "repeat still answered" true
      (repeat.Query_result.matched = first.Query_result.matched)
  | _ -> Alcotest.fail "expected three results"

(* Direct LRU semantics of the signature memo. *)
let sig_cache_lru () =
  let module C = Lsh.Sig_cache in
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Sig_cache.create: capacity must be >= 1") (fun () ->
      ignore (C.create ~capacity:0));
  let c = C.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (C.capacity c);
  Alcotest.(check (option (list int))) "miss on empty" None
    (C.find c ~lo:0 ~hi:10);
  C.add c ~lo:0 ~hi:10 [ 1; 2 ];
  C.add c ~lo:20 ~hi:30 [ 3; 4 ];
  Alcotest.(check int) "two entries" 2 (C.length c);
  (* Touch (0,10) so (20,30) becomes the LRU victim. *)
  Alcotest.(check (option (list int))) "hit promotes" (Some [ 1; 2 ])
    (C.find c ~lo:0 ~hi:10);
  C.add c ~lo:40 ~hi:50 [ 5 ];
  Alcotest.(check int) "still at capacity" 2 (C.length c);
  Alcotest.(check (option (list int))) "LRU entry evicted" None
    (C.find c ~lo:20 ~hi:30);
  Alcotest.(check (option (list int))) "promoted entry survives"
    (Some [ 1; 2 ])
    (C.find c ~lo:0 ~hi:10);
  Alcotest.(check int) "hits" 2 (C.hits c);
  Alcotest.(check int) "misses" 2 (C.misses c);
  Alcotest.(check int) "evictions" 1 (C.evictions c);
  let computed = ref 0 in
  let ids = C.find_or_compute c ~lo:60 ~hi:70 (fun () -> incr computed; [ 9 ]) in
  Alcotest.(check (list int)) "computed on miss" [ 9 ] ids;
  let ids = C.find_or_compute c ~lo:60 ~hi:70 (fun () -> incr computed; [ 9 ]) in
  Alcotest.(check (list int)) "replayed on hit" [ 9 ] ids;
  Alcotest.(check int) "computed exactly once" 1 !computed

(* The system-level memo: repeated ranges replay their signatures, results
   are unchanged with the cache off, and capacity 0 disables it. *)
let system_signature_cache () =
  let s = fresh_system () in
  (match Sys_.signature_cache s with
  | None -> Alcotest.fail "default config must carry a signature cache"
  | Some c ->
    let before = Lsh.Sig_cache.hits c in
    let ids = Sys_.identifiers s (mk 100 200) in
    Alcotest.(check (list int)) "replayed identifiers" ids
      (Sys_.identifiers s (mk 100 200));
    Alcotest.(check bool) "repeat hit the memo" true
      (Lsh.Sig_cache.hits c > before));
  let off =
    fresh_system ~config:(Config.default |> Config.with_signature_cache 0) ()
  in
  Alcotest.(check bool) "capacity 0 disables the memo" true
    (Sys_.signature_cache off = None);
  Alcotest.(check (list int)) "identifiers independent of the memo"
    (Sys_.identifiers (fresh_system ()) (mk 100 200))
    (Sys_.identifiers off (mk 100 200))

(* Route cache: a cached lookup reaches the same owner and never routes
   longer than the plain walk; once warm it takes shortcut first hops. *)
let route_cache_never_longer () =
  let ring =
    Chord.Ring.of_names (List.init 48 (Printf.sprintf "cache-node-%d"))
  in
  let nodes = Chord.Ring.node_ids ring in
  let from = nodes.(0) in
  let cache = Chord.Ring.Route_cache.create () in
  let rng = Prng.Splitmix.create 99L in
  for i = 1 to 200 do
    let key = Prng.Splitmix.int rng Chord.Id.modulus in
    let owner, plain_hops = Chord.Ring.lookup ring ~from ~key in
    let owner', via_hops = Chord.Ring.lookup_via ring cache ~from ~key in
    Alcotest.(check int) (Printf.sprintf "lookup %d: same owner" i) owner
      owner';
    Alcotest.(check bool)
      (Printf.sprintf "lookup %d: never longer (%d <= %d)" i via_hops
         plain_hops)
      true
      (via_hops <= plain_hops)
  done;
  Alcotest.(check bool) "warm cache takes shortcuts" true
    (Chord.Ring.Route_cache.shortcuts cache > 0);
  Alcotest.(check bool) "cache learned addresses" true
    (Chord.Ring.Route_cache.known cache > List.length [ from ])

(* Batched dynamic-network resolution: owners agree with the one-off path,
   repeats are free, and direct hits never route longer. *)
let network_find_successors () =
  let build () =
    let ids = List.init 24 (fun i -> ((i + 3) * 104729) land 0xFFFFFFFF) in
    let net = Chord.Network.create () in
    (match ids with
    | first :: rest ->
      Chord.Network.add_first net first;
      List.iter
        (fun id ->
          Chord.Network.join net id ~via:first;
          Chord.Network.stabilize net ~rounds:2)
        rest
    | [] -> assert false);
    Chord.Network.stabilize net ~rounds:8;
    Alcotest.(check bool) "converged" true (Chord.Network.is_converged net);
    net
  in
  let net = build () and net' = build () in
  let from = List.hd (Chord.Network.node_ids net) in
  let rng = Prng.Splitmix.create 5L in
  let keys = List.init 40 (fun _ -> Prng.Splitmix.int rng Chord.Id.modulus) in
  let keys = keys @ List.filteri (fun i _ -> i < 10) keys in
  let batched = Chord.Network.find_successors net ~from keys in
  Alcotest.(check int) "one result per key" (List.length keys)
    (List.length batched);
  List.iter
    (fun (key, result) ->
      match (result, Chord.Network.find_successor net' ~from ~key) with
      | Some (owner, hops), Some (owner', hops') ->
        Alcotest.(check int) "same owner as the one-off path" owner' owner;
        Alcotest.(check bool)
          (Printf.sprintf "never longer (%d <= %d)" hops hops')
          true (hops <= hops')
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.fail "batched and one-off resolution disagree")
    batched;
  (* The duplicated tail replays the memo of the first 10 keys. *)
  let first10 = List.filteri (fun i _ -> i < 10) batched in
  let tail10 = List.filteri (fun i _ -> i >= 40) batched in
  Alcotest.(check bool) "repeated keys replay the memo" true
    (List.map snd first10 = List.map snd tail10)

(* Batching composes with the fault plane and hot-bucket replication: the
   pipeline degrades gracefully and, at this seeded fault mix, batched
   recall never falls below the sequential run on an identically-seeded
   system. *)
let batch_faults_replication_compose () =
  let config =
    Config.default
    |> Config.with_balancing
         (Config.Replicate
            { r = 2; hot = Balance.Tracker.Absolute 3; window = 64 })
    |> Config.with_faults
         {
           Config.spec =
             { Faults.Plane.no_faults with Faults.Plane.drop = 0.15 };
           retry = Faults.Retry.default;
         }
  in
  let a = fresh_system ~config ~seed:21L ()
  and b = fresh_system ~config ~seed:21L () in
  seed_publishes a;
  seed_publishes b;
  let singles =
    List.map (fun r -> Sys_.query a ~from:(Sys_.peer_by_name a "peer-5") r)
      workload
  in
  let batched =
    Sys_.query_batch b ~from:(Sys_.peer_by_name b "peer-5") workload
  in
  List.iteri
    (fun i (s, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: batched recall no worse" i)
        true
        (b.Query_result.recall >= s.Query_result.recall);
      Alcotest.(check bool)
        (Printf.sprintf "query %d: responders within bound" i)
        true
        (b.Query_result.responders
        <= List.length b.Query_result.stats.Query_result.identifiers))
    (List.combine singles batched);
  let total r = List.fold_left (fun acc q -> acc + Query_result.messages q) 0 r in
  Alcotest.(check bool) "batch spends fewer messages under faults too" true
    (total batched < total singles)

(* Engine-level batching: once the cache is warm, a batch of plans is
   answered exactly like sequential execution — same result relations,
   same provenance, same recall — for fewer overlay messages. *)
let engine_execute_batch () =
  let module Q = Relational.Query in
  let module P = Relational.Predicate in
  let module S = Relational.Schema in
  let module R = Relational.Relation in
  let module V = Relational.Value in
  let module E = P2prange.Engine in
  let patients =
    R.create ~name:"Patient"
      ~schema:
        (S.make
           [ ("patient_id", V.Tint); ("name", V.Tstring); ("age", V.Tint) ])
      (List.init 100 (fun i ->
           [| V.Int i; V.String (Printf.sprintf "p%d" i); V.Int (i mod 90) |]))
  in
  let build () =
    E.create ~seed:21L ~n_peers:12 ~sources:[ patients ]
      ~rangeable:[ (("Patient", "age"), mk 0 120) ]
      ()
  in
  let age_query lo hi =
    Q.select
      (P.make ~attribute:"age" (P.Between (V.Int lo, V.Int hi)))
      (Q.scan "Patient")
  in
  let queries = [ age_query 30 50; age_query 10 25; age_query 60 80 ] in
  let a = build () and b = build () in
  let warm e =
    List.iter
      (fun q -> ignore (E.execute e ~from_name:"peer-0" q : E.answer))
      queries
  in
  warm a;
  warm b;
  let singles = List.map (E.execute a ~from_name:"peer-1") queries in
  let batched = E.execute_batch b ~from_name:"peer-1" queries in
  Alcotest.(check int) "one answer per query" (List.length queries)
    (List.length batched);
  List.iteri
    (fun i (s, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "query %d: same result relation" i)
        true
        (s.E.result = b.E.result);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "query %d: same recall estimate" i)
        s.E.recall_estimate b.E.recall_estimate;
      Alcotest.(check bool)
        (Printf.sprintf "query %d: answered from cache" i)
        true
        (match (List.hd b.E.leaves).E.provenance with
        | E.From_cache _ -> true
        | _ -> false))
    (List.combine singles batched);
  let total r = List.fold_left (fun acc a -> acc + a.E.messages) 0 r in
  Alcotest.(check bool) "engine batch spends fewer messages" true
    (total batched < total singles);
  (* A batch of one goes through the plain execute path. *)
  match E.execute_batch b ~from_name:"peer-2" [ age_query 30 50 ] with
  | [ one ] ->
    let again = E.execute a ~from_name:"peer-2" (age_query 30 50) in
    Alcotest.(check bool) "engine batch of one matches execute" true
      (one.E.result = again.E.result && one.E.messages = again.E.messages)
  | results ->
    Alcotest.failf "engine batch of one returned %d answers"
      (List.length results)

let suite =
  [
    Alcotest.test_case "batch of one is bit-identical" `Quick
      batch_of_one_bit_identical;
    Alcotest.test_case "empty batch" `Quick batch_empty;
    Alcotest.test_case "fault-free batching never changes answers" `Quick
      batch_matches_unbatched_fault_free;
    Alcotest.test_case "duplicate queries in a batch are free" `Quick
      duplicate_queries_cost_nothing;
    Alcotest.test_case "signature cache evicts LRU and counts" `Quick
      sig_cache_lru;
    Alcotest.test_case "system signature memo" `Quick system_signature_cache;
    Alcotest.test_case "cached ring lookups never route longer" `Quick
      route_cache_never_longer;
    Alcotest.test_case "batched network resolution matches one-off" `Quick
      network_find_successors;
    Alcotest.test_case "batching composes with faults and replication" `Quick
      batch_faults_replication_compose;
    Alcotest.test_case "engine batch execution matches sequential" `Quick
      engine_execute_batch;
  ]
