type event = { event_name : string; event_attrs : (string * Json.t) list }

type span = {
  id : int;
  parent : int option;
  name : string;
  start : int;
  stop : int;
  attrs : (string * Json.t) list;
  events : event list;
}

let of_recorded s =
  {
    id = Trace.span_id s;
    parent = Trace.span_parent s;
    name = Trace.span_name s;
    start = Trace.span_start s;
    stop = Trace.span_stop s;
    attrs = Trace.span_attrs s;
    events =
      List.map
        (fun (event_name, _at, event_attrs) -> { event_name; event_attrs })
        (Trace.span_events s);
  }

let attr_int key attrs =
  match List.assoc_opt key attrs with Some (Json.Int i) -> Some i | _ -> None

let children_of spans =
  let table = Hashtbl.create (List.length spans) in
  List.iter
    (fun s ->
      match s.parent with
      | None -> ()
      | Some p ->
        Hashtbl.replace table p
          (s :: Option.value (Hashtbl.find_opt table p) ~default:[]))
    spans;
  fun s -> List.rev (Option.value (Hashtbl.find_opt table s.id) ~default:[])

let rec descendants children s =
  List.concat_map (fun kid -> kid :: descendants children kid) (children s)

let attributed_msgs children query =
  let event_msgs s =
    List.fold_left
      (fun acc e ->
        acc + Option.value (attr_int "msgs" e.event_attrs) ~default:0)
      0 s.events
  in
  List.fold_left
    (fun acc s ->
      acc + event_msgs s + Option.value (attr_int "msgs" s.attrs) ~default:0)
    (event_msgs query) (descendants children query)

type mismatch = { query : int; claimed : int; attributed : int }

type conservation = {
  queries : int;
  messages : int;
  mismatches : mismatch list;
}

let conservation children spans =
  let queries = List.filter (fun s -> s.name = "query") spans in
  let mismatches = ref [] in
  let total = ref 0 in
  List.iter
    (fun q ->
      match attr_int "messages" q.attrs with
      | None -> ()
      | Some claimed ->
        total := !total + claimed;
        let attributed = attributed_msgs children q in
        if attributed <> claimed then
          mismatches := { query = q.id; claimed; attributed } :: !mismatches)
    queries;
  {
    queries = List.length queries;
    messages = !total;
    mismatches = List.rev !mismatches;
  }
