type view = {
  owner : Chord.Id.t -> Chord.Id.t;
  successors : Chord.Id.t -> int -> Chord.Id.t list;
}

let of_ring ring =
  {
    owner = Chord.Ring.owner ring;
    successors = (fun node n -> Chord.Ring.successors ring node n);
  }

let of_network net =
  {
    owner =
      (fun identifier ->
        (* A converged owner if routing succeeds; the identifier itself
           marks "no owner" and yields no successors below. *)
        match Chord.Network.node_ids net with
        | [] -> identifier
        | first :: _ -> (
          match Chord.Network.find_successor net ~from:first ~key:identifier with
          | Some (owner, _) -> owner
          | None -> identifier));
    successors =
      (fun node n ->
        if not (Chord.Network.alive net node) then []
        else
          let rec take k = function
            | [] -> []
            | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
          in
          take n (Chord.Network.successor_list net node));
  }

let replica_set view ?(alive = fun _ -> true) ?(group = fun id -> id)
    ~identifier ~r () =
  if r < 1 then invalid_arg "Replicas.replica_set: r must be >= 1";
  Obs.Trace.with_span "balance.replica_set" (fun () ->
      Obs.Trace.set_int "identifier" identifier;
      Obs.Trace.set_int "r" r;
      let owner = view.owner identifier in
      let taken = Chord.Id.Tbl.create (r + 1) in
      Chord.Id.Tbl.replace taken (group owner) ();
      let replicas =
        List.fold_left
          (fun acc node ->
            if List.length acc >= r then acc
            else
              let g = group node in
              if Chord.Id.Tbl.mem taken g || not (alive node) then acc
              else begin
                Chord.Id.Tbl.replace taken g ();
                node :: acc
              end)
          []
          (* Walk far enough that grouped (virtual-node) duplicates and dead
             nodes cannot exhaust the candidate list prematurely. *)
          (view.successors owner ((r + 1) * 8))
      in
      Obs.Trace.set_int "owner" owner;
      Obs.Trace.set_int "chosen" (1 + List.length replicas);
      owner :: List.rev replicas)
