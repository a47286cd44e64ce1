(* lib/balance/migration.ml and its wiring through System: planner
   mechanics (threshold, target choice, half selection, hysteresis),
   fault-free transparency of the Migrate policy, determinism at a fixed
   seed, inertness of the wiring when migration never triggers,
   crash-of-the-slice-holder fallback, and the Replicate_and_migrate
   composition's recall floor. *)

module Range = Rangeset.Range
module Tracker = Balance.Tracker
module Migration = Balance.Migration
module Sys_ = P2prange.System
module Query_result = P2prange.Query_result
module Config = P2prange.Config
module Peer = P2prange.Peer

let mk lo hi = Range.make ~lo ~hi

let spec_validation () =
  let ok = { Migration.check_every = 4; overload = 1.5; cooldown = 1; min_share = 4 } in
  Migration.validate_spec ok;
  Alcotest.check_raises "check_every"
    (Invalid_argument "Migration: check_every must be >= 1") (fun () ->
      Migration.validate_spec { ok with Migration.check_every = 0 });
  Alcotest.check_raises "overload"
    (Invalid_argument "Migration: overload factor must exceed 1.0") (fun () ->
      Migration.validate_spec { ok with Migration.overload = 1.0 });
  Alcotest.check_raises "cooldown"
    (Invalid_argument "Migration: cooldown must be >= 0") (fun () ->
      Migration.validate_spec { ok with Migration.cooldown = -1 });
  Alcotest.check_raises "min_share"
    (Invalid_argument "Migration: min_share must be >= 1") (fun () ->
      Migration.validate_spec { ok with Migration.min_share = 0 });
  (* The same constraints surface through Config.validate. *)
  let bad =
    { Config.default with
      Config.balancing =
        Config.Migrate { Config.default_migrate with Config.overload = 0.5 };
    }
  in
  Alcotest.check_raises "config overload"
    (P2prange.Error.Error
       {
         P2prange.Error.code = P2prange.Error.Invalid_config;
         message = "Config: migration overload factor must exceed 1.0";
         context = [ ("field", "balancing.overload"); ("value", "0.5") ];
       })
    (fun () -> Config.validate bad)

(* Drive the planner directly on a synthetic three-node ring:
   100 -> 200 -> 300, one position per peer, physical id = position. *)
let planner_unit () =
  let mg =
    Migration.create
      { Migration.check_every = 4; overload = 1.5; cooldown = 1; min_share = 4 }
  in
  let peers = [ 100; 200; 300 ] in
  let predecessor = function
    | 100 -> 300
    | 200 -> 100
    | 300 -> 200
    | _ -> Alcotest.fail "unknown position"
  in
  let tick ?(scores = fun () -> []) () =
    Migration.tick mg ~peers
      ~responsive:(fun _ -> true)
      ~positions:(fun p -> [ p ])
      ~predecessor
      ~scores
  in
  (* Round 1: peer 200 serves 8 of 10 lookups — mean 10/3, trigger at
     1.5x mean = 5, so 200 is the source; 100 and 300 tie at 1 and the
     earlier peer (100) is the target. *)
  for _ = 1 to 6 do
    Migration.note_serve mg ~position:200 ~identifier:120 ~peer:200
  done;
  for _ = 1 to 2 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  (* Nothing happens before the round closes. *)
  for _ = 1 to 3 do
    match tick ~scores:(fun () -> [ (120, 5) ]) () with
    | None -> ()
    | Some _ -> Alcotest.fail "planned before the round closed"
  done;
  Alcotest.(check int) "no migrations yet" 0 (Migration.migrations mg);
  (* Fourth tick closes the round. Segment (100, 200] splits at 150; the
     lower half holds all the score, so it migrates. *)
  (match tick ~scores:(fun () -> [ (120, 5); (180, 2) ]) () with
  | None -> Alcotest.fail "expected a migration"
  | Some mv ->
    Alcotest.(check int) "position" 200 mv.Migration.position;
    Alcotest.(check int) "source" 200 mv.Migration.source;
    Alcotest.(check int) "target" 100 mv.Migration.target;
    Alcotest.(check int) "slice lo" 100 mv.Migration.lo;
    Alcotest.(check int) "slice hi" 150 mv.Migration.hi);
  Alcotest.(check int) "one migration" 1 (Migration.migrations mg);
  Alcotest.(check int) "one slice" 1 (Migration.slice_count mg);
  Alcotest.(check (option int)) "slice redirects" (Some 100)
    (Migration.holder mg ~position:200 ~identifier:120);
  Alcotest.(check (option int)) "kept half stays native" None
    (Migration.holder mg ~position:200 ~identifier:180);
  (* Round 2: both parties are cooling, so even the same overload plans
     nothing. *)
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  for _ = 1 to 4 do
    match tick () with
    | None -> ()
    | Some _ -> Alcotest.fail "migrated during cooldown"
  done;
  Alcotest.(check int) "hysteresis held" 1 (Migration.migrations mg);
  (* Round 3: cooldown expired; the next slice carves from the kept
     native half (150, 200], and 300 is now the least loaded. *)
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200
  done;
  Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
  for _ = 1 to 4 do
    ignore (tick () : Migration.move option)
  done;
  Alcotest.(check int) "second migration" 2 (Migration.migrations mg);
  Alcotest.(check (option int)) "second slice goes to peer 300" (Some 300)
    (Migration.holder mg ~position:200 ~identifier:160);
  (* Round 4 is cooldown again; round 5: the first slice's holder (100)
     is itself hammered through the slice and re-splits it — received
     slices shed exactly like native segments. The hot quarter (100, 125]
     goes to the least-loaded peer, 200 — the native owner — so lookups
     for it stop redirecting altogether. *)
  for _ = 1 to 4 do
    ignore (tick () : Migration.move option)
  done;
  Alcotest.(check int) "cooldown after second move" 2 (Migration.migrations mg);
  for _ = 1 to 8 do
    Migration.note_serve mg ~position:200 ~identifier:120 ~peer:100
  done;
  Migration.note_serve mg ~position:200 ~identifier:180 ~peer:200;
  Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
  (match
     let result = ref None in
     for _ = 1 to 4 do
       match tick ~scores:(fun () -> [ (120, 7) ]) () with
       | Some mv -> result := Some mv
       | None -> ()
     done;
     !result
   with
  | None -> Alcotest.fail "expected the slice to re-split"
  | Some mv ->
    Alcotest.(check int) "re-split source is the holder" 100 mv.Migration.source;
    Alcotest.(check int) "re-split target" 200 mv.Migration.target;
    Alcotest.(check int) "re-split lo" 100 mv.Migration.lo;
    Alcotest.(check int) "re-split hi" 125 mv.Migration.hi);
  Alcotest.(check int) "third migration" 3 (Migration.migrations mg);
  Alcotest.(check (option int)) "hot quarter is native again" None
    (Migration.holder mg ~position:200 ~identifier:120);
  Alcotest.(check (option int)) "cold quarter stays with the holder"
    (Some 100)
    (Migration.holder mg ~position:200 ~identifier:130);
  Alcotest.(check int) "two live slices" 2 (Migration.slice_count mg)

(* The planner only sums each half's scores, so the order of the
   [~scores] list — and [Tracker.windowed_scores] promises none — must
   not change the planned move. *)
let scores_order_independent () =
  let plan scores =
    let mg =
      Migration.create
        { Migration.check_every = 4; overload = 1.5; cooldown = 1; min_share = 4 }
    in
    let predecessor = function
      | 100 -> 300
      | 200 -> 100
      | 300 -> 200
      | _ -> Alcotest.fail "unknown position"
    in
    for _ = 1 to 8 do
      Migration.note_serve mg ~position:200 ~identifier:160 ~peer:200
    done;
    Migration.note_serve mg ~position:100 ~identifier:50 ~peer:100;
    Migration.note_serve mg ~position:300 ~identifier:250 ~peer:300;
    let move = ref None in
    for _ = 1 to 4 do
      match
        Migration.tick mg ~peers:[ 100; 200; 300 ]
          ~responsive:(fun _ -> true)
          ~positions:(fun p -> [ p ])
          ~predecessor
          ~scores:(fun () -> scores)
      with
      | Some mv -> move := Some mv
      | None -> ()
    done;
    match !move with
    | Some mv ->
      Printf.sprintf "%d -> %d (%d, %d]" mv.Migration.source
        mv.Migration.target mv.Migration.lo mv.Migration.hi
    | None -> Alcotest.fail "expected a migration"
  in
  (* (100, 150] scores 5 and (150, 200] scores 6: the upper half moves,
     but only by one point, so a dropped or double-counted pair shows. *)
  let scores = [ (120, 3); (130, 2); (160, 4); (170, 1); (190, 1); (250, 9) ] in
  let expected = plan scores in
  Alcotest.(check string) "upper half moves" "200 -> 100 (150, 200]" expected;
  let shuffled =
    let rng = Prng.Splitmix.create 11L in
    List.map (fun p -> (Prng.Splitmix.int rng 1_000, p)) scores
    |> List.sort compare |> List.map snd
  in
  List.iter
    (fun (label, order) -> Alcotest.(check string) label expected (plan order))
    [ ("reversed", List.rev scores); ("shuffled", shuffled) ];
  (* The tracker's windowed pairs (previous window 160 170 190 120,
     current 160 160 130), in whatever order they come, plan the same
     move as their sorted form. *)
  let tracker = Tracker.create ~window:4 (Tracker.Absolute max_int) in
  List.iter
    (fun identifier -> Tracker.record_query tracker ~peer:200 ~identifier)
    [ 120; 120; 130; 160; 160; 170; 190; 120; 160; 160; 130 ];
  let pairs = Tracker.windowed_scores tracker in
  Alcotest.(check (list (pair int int))) "each identifier once, combined"
    [ (120, 1); (130, 1); (160, 3); (170, 1); (190, 1) ]
    (List.sort compare pairs);
  Alcotest.(check string) "tracker order" (plan (List.sort compare pairs))
    (plan pairs)

(* Configs mirroring the balance tests: one identifier per range and
   spread placement, so load concentrates on genuinely hot buckets. *)
let base_config =
  { Config.default with
    Config.matching = Config.Containment_match;
    spread_identifiers = true;
    l = 1;
  }

let migrate_spec =
  { Config.check_every = 64;
    overload = 1.3;
    cooldown = 1;
    min_share = 8;
    window = 2048;
  }

let migrate_config =
  { base_config with Config.balancing = Config.Migrate migrate_spec }

let zipf_shape =
  Workload.Query_workload.Zipf_hotspots { hotspots = 4; spread = 8; s = 1.0 }

let run_stream sys ~n ~stream_seed =
  let rng = Prng.Splitmix.create stream_seed in
  let stream =
    Workload.Query_workload.create zipf_shape
      ~domain:Config.default.Config.domain ~seed:stream_seed
  in
  let live = Array.of_list (List.filter (Sys_.alive sys) (Sys_.peers sys)) in
  List.init n (fun _ ->
      let from = live.(Prng.Splitmix.int rng (Array.length live)) in
      Sys_.query sys ~from (Workload.Query_workload.next stream))

let matched_range = Query_result.matched_range

(* Fault-free, migration must be invisible in results: buckets move
   wholesale and lookups follow them, so every query answers exactly as
   without balancing (only message counts may differ, by the redirect
   forwards). *)
let migration_transparent_fault_free () =
  let off = Sys_.create ~config:base_config ~seed:42L ~n_peers:24 () in
  let on = Sys_.create ~config:migrate_config ~seed:42L ~n_peers:24 () in
  let ra = run_stream off ~n:1_200 ~stream_seed:5L in
  let rb = run_stream on ~n:1_200 ~stream_seed:5L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range a) (matched_range b));
      Alcotest.(check (float 0.0)) "same recall" a.Query_result.recall
        b.Query_result.recall)
    ra rb;
  (* Non-vacuous: slices really moved. *)
  Alcotest.(check bool) "migrations happened" true (Sys_.migrations on > 0);
  Alcotest.(check bool) "slices live" true (Sys_.migrated_slices on > 0);
  Alcotest.(check int) "off system migrated nothing" 0 (Sys_.migrations off)

(* Same seed, same config: everything replays bit-identically, messages
   included. *)
let migration_determinism () =
  let a = Sys_.create ~config:migrate_config ~seed:77L ~n_peers:24 () in
  let b = Sys_.create ~config:migrate_config ~seed:77L ~n_peers:24 () in
  let ra = run_stream a ~n:800 ~stream_seed:9L in
  let rb = run_stream b ~n:800 ~stream_seed:9L in
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range x) (matched_range y));
      Alcotest.(check (float 0.0)) "same recall" x.Query_result.recall
        y.Query_result.recall;
      Alcotest.(check int) "same messages"
        x.Query_result.stats.Query_result.messages
        y.Query_result.stats.Query_result.messages)
    ra rb;
  Alcotest.(check int) "same migration count" (Sys_.migrations a)
    (Sys_.migrations b);
  Alcotest.(check int) "same slice count" (Sys_.migrated_slices a)
    (Sys_.migrated_slices b);
  Alcotest.(check bool) "non-vacuous" true (Sys_.migrations a > 0)

(* A Migrate policy that can never trigger must be message-for-message
   identical to No_balancing — the wiring itself perturbs nothing (the
   bit-identity-when-unset contract, exercised from the stronger side;
   the committed bench baseline pins the unset case across builds). *)
let wiring_inert_until_triggered () =
  let never =
    { base_config with
      Config.balancing =
        Config.Migrate { migrate_spec with Config.min_share = max_int };
    }
  in
  let off = Sys_.create ~config:base_config ~seed:13L ~n_peers:24 () in
  let on = Sys_.create ~config:never ~seed:13L ~n_peers:24 () in
  let ra = run_stream off ~n:600 ~stream_seed:3L in
  let rb = run_stream on ~n:600 ~stream_seed:3L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same match" true
        (Option.equal Range.equal (matched_range a) (matched_range b));
      Alcotest.(check int) "same messages"
        a.Query_result.stats.Query_result.messages
        b.Query_result.stats.Query_result.messages)
    ra rb;
  Alcotest.(check int) "nothing migrated" 0 (Sys_.migrations on)

(* The ISSUE's fault-interplay requirement: a slice whose holder crashes
   must fall back cleanly — queries degrade into empty answers rather
   than raising, and the data comes back when the holder recovers. *)
let holder_crash_falls_back () =
  let config =
    { base_config with
      Config.balancing =
        Config.Migrate
          { Config.check_every = 16;
            overload = 1.5;
            cooldown = 1;
            min_share = 8;
            window = 2048;
          };
    }
  in
  let s = Sys_.create ~config ~seed:7L ~n_peers:8 () in
  let range = mk 30 50 in
  let identifier = List.hd (Sys_.identifiers s range) in
  let owner = Sys_.owner_of_identifier s identifier in
  let from =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let _ = Sys_.publish s ~from range in
  (* Hammer the one range: all load lands on its owner, which must shed
     the slice holding it on the first planner round. *)
  for _ = 1 to 20 do
    let r = Sys_.query s ~from range in
    Alcotest.(check bool) "served throughout" true
      (r.Query_result.matched <> None)
  done;
  Alcotest.(check bool) "the hot owner migrated its slice" true
    (Sys_.migrations s >= 1);
  (* The holder of the migrated slice is the first-created peer that is
     not the source — the planner's deterministic target choice. *)
  let target =
    List.find (fun p -> Peer.name p <> Peer.name owner) (Sys_.peers s)
  in
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "redirect still answers exactly" true
    (r.Query_result.recall = 1.0);
  Sys_.fail_peer s target;
  (* Holder down: the lookup falls back to the native owner, whose bucket
     moved away — an empty answer, never an exception. *)
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "fallback answers empty" true
    (r.Query_result.matched = None);
  Sys_.recover_peer s target;
  let r = Sys_.query s ~from range in
  Alcotest.(check bool) "data returns with the holder" true
    (r.Query_result.matched <> None);
  Alcotest.(check (float 1e-9)) "exact again" 1.0 r.Query_result.recall

(* A query on the balanced path allocates the same whatever the peer
   count: nothing on it may walk or copy the peer population (the
   planner's peer list is built once, at creation). Queries and senders
   are drawn before measuring, so only [System.query] is counted. *)
let query_allocation_independent_of_peers () =
  let config =
    { Config.default with
      Config.balancing =
        Config.Replicate_and_migrate
          {
            replicate =
              { Config.r = 2; hot = Tracker.Absolute 8; window = 1024 };
            migrate = migrate_spec;
          };
    }
  in
  let words_per_query n_peers =
    let sys = Sys_.create ~config ~seed:42L ~n_peers () in
    let peers = Array.of_list (Sys_.peers sys) in
    let rng = Prng.Splitmix.create 17L in
    let stream =
      Workload.Query_workload.create zipf_shape
        ~domain:Config.default.Config.domain ~seed:17L
    in
    let draw n =
      Array.init n (fun _ ->
          let from = peers.(Prng.Splitmix.int rng (Array.length peers)) in
          (from, Workload.Query_workload.next stream))
    in
    let run =
      Array.iter (fun (from, range) ->
          ignore (Sys_.query sys ~from range : Query_result.t))
    in
    run (draw 400);
    let measured = draw 400 in
    let before = Gc.minor_words () in
    run measured;
    (Gc.minor_words () -. before) /. 400.0
  in
  let small = words_per_query 100 and large = words_per_query 1_000 in
  if large > 1.2 *. small then
    Alcotest.failf
      "minor words per query grow with the peer count: %.0f at 100 peers, \
       %.0f at 1000"
      small large

(* Replicate_and_migrate composes: fault-free it stays transparent, both
   mechanisms actually run, and after the hottest peers fail its recall
   floor is no worse than the unbalanced system's. *)
let composition_recall_floor () =
  let both_config =
    { base_config with
      Config.balancing =
        Config.Replicate_and_migrate
          {
            replicate =
              { Config.r = 2; hot = Tracker.Absolute 8; window = 1024 };
            migrate = migrate_spec;
          };
    }
  in
  let n_peers = 48 and n_queries = 2_000 in
  let off = Sys_.create ~config:base_config ~seed:42L ~n_peers () in
  let both = Sys_.create ~config:both_config ~seed:42L ~n_peers () in
  let ra = run_stream off ~n:n_queries ~stream_seed:42L in
  let rb = run_stream both ~n:n_queries ~stream_seed:42L in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "fault-free composition is transparent" true
        (Option.equal Range.equal (matched_range a) (matched_range b)))
    ra rb;
  Alcotest.(check bool) "replication ran" true (Sys_.replicated_buckets both > 0);
  Alcotest.(check bool) "migration ran" true (Sys_.migrations both > 0);
  (* Fail the top-10% most-loaded peers of the OFF run in both systems. *)
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
      List.iter
        (fun name -> Sys_.fail_peer sys (Sys_.peer_by_name sys name))
        victims)
    [ off; both ];
  let mean rs =
    List.fold_left (fun acc r -> acc +. r.Query_result.recall) 0.0 rs
    /. float_of_int (List.length rs)
  in
  let rec_off = mean (run_stream off ~n:500 ~stream_seed:1337L) in
  let rec_both = mean (run_stream both ~n:500 ~stream_seed:1337L) in
  Alcotest.(check bool)
    (Printf.sprintf "composition recall floor (%.3f vs %.3f)" rec_both rec_off)
    true
    (rec_both >= rec_off)

(* The planner's documented tie-breaks, on rounds where cooling and
   unresponsive peers tie with eligible ones: the hottest eligible
   source first (equal loads keep the caller's order), and the first
   least-loaded eligible target in the caller's order. Positions are
   10, 20, …, 80 with physical id = position; the caller's order is
   deliberately not ascending. *)
let planner_tie_breaks () =
  let mg =
    Migration.create
      { Migration.check_every = 1; overload = 1.1; cooldown = 3; min_share = 1 }
  in
  let peers = [ 10; 20; 70; 40; 80; 60; 30; 50 ] in
  let tick () =
    Migration.tick mg ~peers
      ~responsive:(fun p -> p <> 10 && p <> 40)
      ~positions:(fun p -> [ p ])
      ~predecessor:(fun p -> if p = 10 then 80 else p - 10)
      ~scores:(fun () -> [])
  in
  let serve peer n =
    for _ = 1 to n do
      Migration.note_serve mg ~position:peer ~identifier:(peer - 5) ~peer
    done
  in
  let expect label (source, target) =
    match tick () with
    | None -> Alcotest.failf "%s: expected a migration" label
    | Some mv ->
      Alcotest.(check (pair int int))
        (label ^ ": (source, target)")
        (source, target)
        (mv.Migration.source, mv.Migration.target)
  in
  (* Round 1: 60 sheds to 20, the first zero-load eligible peer (10 is
     unresponsive). Both then cool through round 4. *)
  serve 60 10;
  serve 30 1;
  expect "round 1" (60, 20);
  (* Round 2: the hottest peers are cooling (60) or unresponsive (40);
     80 and 50 tie among the eligible, so the caller's order picks 80.
     The zero-load 10 (unresponsive) and 20 (cooling) are no targets;
     70 and 30 tie at one serve, and 70 comes first. *)
  serve 40 6;
  serve 60 6;
  serve 80 5;
  serve 50 5;
  serve 70 1;
  serve 30 1;
  expect "round 2" (80, 70);
  (* Round 3: only 30 and 50 are eligible. Both are overloaded; 50 is
     hotter, so it goes first although 30 precedes it. *)
  serve 40 9;
  serve 60 9;
  serve 30 4;
  serve 50 6;
  expect "round 3" (50, 30)

let suite =
  [
    Alcotest.test_case "spec validation" `Quick spec_validation;
    Alcotest.test_case "planner mechanics" `Quick planner_unit;
    Alcotest.test_case "planner tie-breaks with ineligible peers" `Quick
      planner_tie_breaks;
    Alcotest.test_case "planner ignores the order of scores" `Quick
      scores_order_independent;
    Alcotest.test_case "migration is invisible fault-free" `Quick
      migration_transparent_fault_free;
    Alcotest.test_case "determinism at a fixed seed" `Quick migration_determinism;
    Alcotest.test_case "wiring is inert until triggered" `Quick
      wiring_inert_until_triggered;
    Alcotest.test_case "holder crash falls back cleanly" `Quick
      holder_crash_falls_back;
    Alcotest.test_case "query allocation independent of the peer count"
      `Quick query_allocation_independent_of_peers;
    Alcotest.test_case "replicate-and-migrate recall floor" `Quick
      composition_recall_floor;
  ]
