(* Partition stores: bucket isolation, idempotent insertion, counting. *)

module Range = Rangeset.Range

let mk lo hi = Range.make ~lo ~hi
let entry lo hi = { P2prange.Store.range = mk lo hi; partition = None }

(* Most cases only care about the store's state, not the inserted flag. *)
let insert s ~identifier e = ignore (P2prange.Store.insert s ~identifier e : bool)

let empty_bucket () =
  let s = P2prange.Store.create () in
  Alcotest.(check int) "no entries" 0 (P2prange.Store.entry_count s);
  Alcotest.(check int) "no buckets" 0 (P2prange.Store.bucket_count s);
  Alcotest.(check int) "empty bucket" 0
    (List.length (P2prange.Store.bucket s ~identifier:42))

let insert_and_lookup () =
  let s = P2prange.Store.create () in
  insert s ~identifier:7 (entry 0 10);
  insert s ~identifier:7 (entry 20 30);
  insert s ~identifier:9 (entry 0 10);
  Alcotest.(check int) "three entries" 3 (P2prange.Store.entry_count s);
  Alcotest.(check int) "two buckets" 2 (P2prange.Store.bucket_count s);
  Alcotest.(check int) "bucket 7 holds two" 2
    (List.length (P2prange.Store.bucket s ~identifier:7));
  Alcotest.(check int) "bucket 9 holds one" 1
    (List.length (P2prange.Store.bucket s ~identifier:9));
  Alcotest.(check int) "unknown bucket empty" 0
    (List.length (P2prange.Store.bucket s ~identifier:1000))

let insert_idempotent_per_bucket () =
  let s = P2prange.Store.create () in
  insert s ~identifier:7 (entry 0 10);
  insert s ~identifier:7 (entry 0 10);
  Alcotest.(check int) "same (id, range) stored once" 1
    (P2prange.Store.entry_count s);
  (* …but the same range under another identifier is a separate entry. *)
  insert s ~identifier:8 (entry 0 10);
  Alcotest.(check int) "other bucket counts" 2 (P2prange.Store.entry_count s)

let mem_checks () =
  let s = P2prange.Store.create () in
  insert s ~identifier:7 (entry 0 10);
  Alcotest.(check bool) "present" true
    (P2prange.Store.mem s ~identifier:7 ~range:(mk 0 10));
  Alcotest.(check bool) "different range absent" false
    (P2prange.Store.mem s ~identifier:7 ~range:(mk 0 11));
  Alcotest.(check bool) "different bucket absent" false
    (P2prange.Store.mem s ~identifier:8 ~range:(mk 0 10))

let all_entries_spans_buckets () =
  let s = P2prange.Store.create () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  Alcotest.(check int) "all three visible" 3
    (List.length (P2prange.Store.all_entries s))

let fifo_evicts_oldest () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check int) "capacity respected" 3 (P2prange.Store.entry_count s);
  Alcotest.(check int) "one eviction" 1 (P2prange.Store.evictions s);
  Alcotest.(check bool) "oldest gone" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  Alcotest.(check bool) "newest present" true
    (P2prange.Store.mem s ~identifier:4 ~range:(mk 60 70))

let lru_keeps_recently_matched () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Lru 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  (* Touch bucket 1: its entry becomes the most recently used. *)
  ignore (P2prange.Store.bucket s ~identifier:1);
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check bool) "touched entry survives" true
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  (* Entry 2 was the least recently used; it must be the victim. *)
  Alcotest.(check bool) "LRU victim gone" false
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

let fifo_ignores_reads () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 2) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  (* Reading bucket 1 must NOT protect it under FIFO. *)
  ignore (P2prange.Store.bucket s ~identifier:1);
  insert s ~identifier:3 (entry 40 50);
  Alcotest.(check bool) "insertion order rules" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10))

let unbounded_never_evicts () =
  let s = P2prange.Store.create () in
  for i = 0 to 999 do
    insert s ~identifier:i (entry i (i + 1))
  done;
  Alcotest.(check int) "all kept" 1000 (P2prange.Store.entry_count s);
  Alcotest.(check int) "no evictions" 0 (P2prange.Store.evictions s)

let capacity_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Store.create: capacity must be at least 1") (fun () ->
      ignore (P2prange.Store.create ~policy:(P2prange.Store.Lru 0) ()))

let all_entries_does_not_refresh_lru () =
  (* Regression: the per-peer index scan ([all_entries]) and maintenance
     reads ([peek_bucket]) must not count as uses, or a full-store scan
     would reset every LRU stamp and turn eviction into FIFO. *)
  let s = P2prange.Store.create ~policy:(P2prange.Store.Lru 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  insert s ~identifier:3 (entry 40 50);
  (* Make 2 the most recent, then scan; if scanning refreshed stamps the
     victim would be decided by scan order instead. *)
  ignore (P2prange.Store.bucket s ~identifier:2);
  ignore (P2prange.Store.all_entries s);
  ignore (P2prange.Store.peek_bucket s ~identifier:1);
  insert s ~identifier:4 (entry 60 70);
  Alcotest.(check bool) "LRU victim unchanged by scans" false
    (P2prange.Store.mem s ~identifier:1 ~range:(mk 0 10));
  Alcotest.(check bool) "touched entry survives" true
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

let evictions_count_across_buckets () =
  (* The eviction counter is store-wide: victims from different buckets
     all accumulate, and emptied buckets disappear. *)
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 2) () in
  for i = 1 to 6 do
    insert s ~identifier:i (entry (10 * i) (10 * i + 5))
  done;
  Alcotest.(check int) "four dropped over four buckets" 4
    (P2prange.Store.evictions s);
  Alcotest.(check int) "capacity holds" 2 (P2prange.Store.entry_count s);
  Alcotest.(check int) "emptied buckets pruned" 2
    (P2prange.Store.bucket_count s);
  (* Idempotent re-insert of a survivor must not evict. *)
  insert s ~identifier:6 (entry 60 65);
  Alcotest.(check int) "no eviction on re-insert" 4 (P2prange.Store.evictions s)

let remove_bucket_is_not_an_eviction () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 8) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:1 (entry 20 30);
  insert s ~identifier:2 (entry 40 50);
  Alcotest.(check int) "removes the whole bucket" 2
    (P2prange.Store.remove_bucket s ~identifier:1);
  Alcotest.(check int) "missing bucket removes nothing" 0
    (P2prange.Store.remove_bucket s ~identifier:1);
  Alcotest.(check int) "count adjusted" 1 (P2prange.Store.entry_count s);
  Alcotest.(check int) "not counted as eviction" 0 (P2prange.Store.evictions s)

let capacity_one () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 1) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:2 (entry 20 30);
  Alcotest.(check int) "single slot" 1 (P2prange.Store.entry_count s);
  Alcotest.(check bool) "latest wins" true
    (P2prange.Store.mem s ~identifier:2 ~range:(mk 20 30))

(* The flag [insert] returns must equal the old "[mem] first, then
   insert" answer, also when the eviction victim sits in the very bucket
   being inserted into (the bucket must be re-read after evicting). *)
let insert_flag_under_eviction policy ~touch ~expect_bucket1 () =
  let s = P2prange.Store.create ~policy () in
  let put identifier (lo, hi) ~expect =
    let fresh = not (P2prange.Store.mem s ~identifier ~range:(mk lo hi)) in
    let inserted = P2prange.Store.insert s ~identifier (entry lo hi) in
    Alcotest.(check bool) "flag equals the mem pre-check" fresh inserted;
    Alcotest.(check bool) "expected flag" expect inserted
  in
  put 1 (0, 10) ~expect:true;
  put 2 (20, 30) ~expect:true;
  put 1 (40, 50) ~expect:true;
  touch s;
  (* Full: a re-insert neither evicts nor changes anything… *)
  put 1 (0, 10) ~expect:false;
  Alcotest.(check int) "no eviction on a duplicate" 0
    (P2prange.Store.evictions s);
  (* …while a fresh range evicts (0, 10) out of bucket 1 itself. *)
  put 1 (60, 70) ~expect:true;
  Alcotest.(check int) "one eviction" 1 (P2prange.Store.evictions s);
  let ranges identifier =
    List.map
      (fun e -> Range.to_string e.P2prange.Store.range)
      (P2prange.Store.peek_bucket s ~identifier)
  in
  Alcotest.(check (list string)) "bucket 1 after evicting from it"
    (List.map (fun (lo, hi) -> Range.to_string (mk lo hi)) expect_bucket1)
    (ranges 1);
  Alcotest.(check (list string)) "bucket 2 untouched"
    [ Range.to_string (mk 20 30) ] (ranges 2);
  Alcotest.(check int) "entry_count at capacity" 3
    (P2prange.Store.entry_count s);
  Alcotest.(check int) "entry_count matches the buckets"
    (P2prange.Store.entry_count s)
    (List.length (ranges 1) + List.length (ranges 2));
  (* The evicted range is gone, so inserting it again is fresh. *)
  put 1 (0, 10) ~expect:true

(* [insert_all] against its oracle: [insert] on each entry in turn.
   Both stores get the same random prefix of inserts (and, under LRU,
   reads), then one copy of a batch into a single bucket. The batch
   draws from a tiny range pool, so it repeats itself and overlaps the
   bucket, and capacity 3 makes evictions hit the target bucket too.
   A trailing insert checks the tables also agree on the next eviction. *)
type step = Put of int * (int * int) | Touch of int

let range_pool = QCheck.Gen.(map (fun lo -> (lo, lo + 5)) (int_range 0 7))

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun i r -> Put (i, r)) (int_range 0 3) range_pool);
        (1, map (fun i -> Touch i) (int_range 0 3));
      ])

let arb_case =
  QCheck.make
    ~print:(fun (prefix, (target, batch), (after_id, after)) ->
      let r (lo, hi) = Printf.sprintf "[%d,%d]" lo hi in
      Printf.sprintf "prefix %s; insert_all %d [%s]; then %d %s"
        (String.concat "; "
           (List.map
              (function
                | Put (i, rg) -> Printf.sprintf "put %d %s" i (r rg)
                | Touch i -> Printf.sprintf "touch %d" i)
              prefix))
        target
        (String.concat ";" (List.map r batch))
        after_id (r after))
    QCheck.Gen.(
      triple
        (list_size (int_range 0 10) step_gen)
        (pair (int_range 0 3) (list_size (int_range 0 8) range_pool))
        (pair (int_range 0 3) range_pool))

let insert_all_matches_oracle name policy =
  QCheck.Test.make
    ~name:(Printf.sprintf "insert_all equals per-entry insert (%s)" name)
    ~count:500 arb_case
    (fun (prefix, (target, batch), (after_id, after)) ->
      let module S = P2prange.Store in
      let fresh () =
        let s = S.create ~policy () in
        List.iter
          (function
            | Put (identifier, (lo, hi)) -> insert s ~identifier (entry lo hi)
            | Touch identifier -> ignore (S.bucket s ~identifier))
          prefix;
        s
      in
      let batched = fresh () and oracle = fresh () in
      let entries = List.map (fun (lo, hi) -> entry lo hi) batch in
      let count = S.insert_all batched ~identifier:target entries in
      let expected =
        List.fold_left
          (fun n e -> if S.insert oracle ~identifier:target e then n + 1 else n)
          0 entries
      in
      let state s =
        ( List.map
            (fun identifier ->
              List.map
                (fun e -> Range.to_string e.S.range)
                (S.peek_bucket s ~identifier))
            [ 0; 1; 2; 3 ],
          S.entry_count s,
          S.evictions s,
          S.identifiers s )
      in
      let agree = count = expected && state batched = state oracle in
      let lo, hi = after in
      insert batched ~identifier:after_id (entry lo hi);
      insert oracle ~identifier:after_id (entry lo hi);
      agree && state batched = state oracle)

(* The eviction victims sit in the bucket being copied into: the batch
   must see them gone, exactly as single inserts would. *)
let insert_all_evicts_from_target () =
  let s = P2prange.Store.create ~policy:(P2prange.Store.Fifo 3) () in
  insert s ~identifier:1 (entry 0 10);
  insert s ~identifier:1 (entry 20 30);
  insert s ~identifier:2 (entry 40 50);
  let added =
    P2prange.Store.insert_all s ~identifier:1
      [ entry 20 30; entry 60 70; entry 0 10; entry 60 70 ]
  in
  Alcotest.(check int) "two added, duplicates skipped" 2 added;
  (* (60, 70) evicts (0, 10); re-adding (0, 10) then evicts (20, 30),
     the batch's own earlier duplicate. *)
  Alcotest.(check (list string)) "bucket 1, newest first"
    [ "[0, 10]"; "[60, 70]" ]
    (List.map
       (fun e -> Range.to_string e.P2prange.Store.range)
       (P2prange.Store.peek_bucket s ~identifier:1));
  Alcotest.(check int) "two evictions" 2 (P2prange.Store.evictions s);
  Alcotest.(check int) "bucket 2 untouched" 1
    (List.length (P2prange.Store.peek_bucket s ~identifier:2));
  Alcotest.(check int) "entry_count at capacity" 3
    (P2prange.Store.entry_count s)

let suite =
  [
    Alcotest.test_case "empty store" `Quick empty_bucket;
    Alcotest.test_case "insert and bucket lookup" `Quick insert_and_lookup;
    Alcotest.test_case "idempotent per (identifier, range)" `Quick
      insert_idempotent_per_bucket;
    Alcotest.test_case "mem" `Quick mem_checks;
    Alcotest.test_case "all_entries spans buckets" `Quick all_entries_spans_buckets;
    Alcotest.test_case "FIFO evicts the oldest insertion" `Quick fifo_evicts_oldest;
    Alcotest.test_case "LRU keeps recently matched entries" `Quick
      lru_keeps_recently_matched;
    Alcotest.test_case "FIFO ignores reads" `Quick fifo_ignores_reads;
    Alcotest.test_case "unbounded never evicts" `Quick unbounded_never_evicts;
    Alcotest.test_case "scans do not refresh LRU stamps" `Quick
      all_entries_does_not_refresh_lru;
    Alcotest.test_case "evictions count across buckets" `Quick
      evictions_count_across_buckets;
    Alcotest.test_case "remove_bucket is not an eviction" `Quick
      remove_bucket_is_not_an_eviction;
    Alcotest.test_case "capacity validation" `Quick capacity_validation;
    Alcotest.test_case "capacity of one" `Quick capacity_one;
    Alcotest.test_case "insert flag when FIFO evicts from the same bucket"
      `Quick
      (insert_flag_under_eviction (P2prange.Store.Fifo 3)
         ~touch:(fun _ -> ())
         ~expect_bucket1:[ (60, 70); (40, 50) ]);
    Alcotest.test_case "insert flag when LRU evicts from the same bucket"
      `Quick
      (insert_flag_under_eviction (P2prange.Store.Lru 3)
         ~touch:(fun s ->
           (* A read of bucket 2 leaves (0, 10) the least recently
              used entry. *)
           ignore (P2prange.Store.bucket s ~identifier:2))
         ~expect_bucket1:[ (60, 70); (40, 50) ]);
    Alcotest.test_case "insert_all evicts out of its own bucket" `Quick
      insert_all_evicts_from_target;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      (insert_all_matches_oracle "unbounded" P2prange.Store.Unbounded);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      (insert_all_matches_oracle "LRU 3" (P2prange.Store.Lru 3));
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      (insert_all_matches_oracle "FIFO 3" (P2prange.Store.Fifo 3));
  ]
