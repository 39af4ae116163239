(* Workload definitions and the seeded request generator.

   A workload fixes the repository the server starts on (schema, variants,
   pre-seeded journal), the server's flags, which variant each client
   connection designs on, and the shape of each connection's request
   cycle.  The generator turns [--seed] into the exact request lines the
   server receives: it never looks at a response, so the same seed gives a
   byte-identical stream however fast the server answers. *)

type cls = Write | Read | Query

let cls_name = function Write -> "write" | Read -> "read" | Query -> "query"
let classes = [ Write; Read; Query ]

type schema_kind = Small | Synth of int

type t = {
  name : string;
  why : string;
  legacy : string;  (** the single-shot harness this workload supersedes *)
  schema : schema_kind;
  conns : string list;  (** variant of each client connection *)
  focus : string;  (** concept schema every connection focuses *)
  cycle : cls list;  (** one connection's repeating request pattern *)
  seeded_ops : int;  (** ops journalled before the server starts *)
  fsync_delay_ms : float;
  shards : int;
  rss_writes : int;
      (** [server_rss_mb] is read once this many writes are acknowledged:
          the server keeps every op's history, so memory grows with work
          done, and a fixed amount of work compares commits that run at
          different speeds *)
}

(* The P11 bench's two-interface schema. *)
let small_schema_text =
  "interface Person { attribute string name; attribute int age; };\n\
   interface Course { attribute string title; attribute string code; };\n"

let small_interfaces = [| "Person"; "Course" |]
let small_attrs = [| "name"; "age"; "title"; "code" |]
let large_types = 2000

(* Variant names for the two-connection workloads: the first names that
   rendezvous hashing sends to shard 0 and to shard 1 of a two-shard pool,
   so under [--shards 2] each connection's variant has a worker of its
   own.  The unsharded workloads use the same names, so [routed] differs
   from [small-multi] only by the router hop. *)
let shard_variants =
  let rec find k want =
    let v = Printf.sprintf "v%d" k in
    if Server.Router.shard_of ~shards:2 v = want then v else find (k + 1) want
  in
  [ find 0 0; find 0 1 ]

let small_multi =
  {
    name = "small-multi";
    why =
      "two variants, one writer each, real fsync: the tiny engine step \
       leaves the commit path (lock, encode, group commit, fsync, publish) \
       dominant";
    legacy = "P11";
    schema = Small;
    conns = shard_variants;
    focus = "ww:Person";
    cycle = [ Write; Write; Read; Write; Write; Query ];
    seeded_ops = 0;
    fsync_delay_ms = 0.0;
    shards = 1;
    rss_writes = 5000;
  }

(* The timed workloads. *)
let all =
  [
    small_multi;
    {
      name = "large-schema";
      why =
        "2000-interface schema, one designer: engine exec, view refresh and \
         the consistency report dominate, and setup pays session build plus \
         replay";
      legacy = "P8/P17";
      schema = Synth large_types;
      conns = [ "big" ];
      focus = "ww:T0";
      cycle = [ Write; Query; Query; Write; Read; Query; Query ];
      seeded_ops = 50;
      fsync_delay_ms = 0.0;
      shards = 1;
      rss_writes = 60;
    };
    {
      name = "one-variant-slow-disk";
      why =
        "two writers share one variant and a 2 ms fsync: group commit \
         batches, reads and queries run lock-free beside an in-flight write";
      legacy = "P13/P14";
      schema = Small;
      conns = [ "shared"; "shared" ];
      focus = "ww:Person";
      cycle = [ Write; Query; Write; Read ];
      seeded_ops = 0;
      fsync_delay_ms = 2.0;
      shards = 1;
      rss_writes = 1500;
    };
  ]

(* [small-multi] through [swsd serve --shards 2]: the only shape that
   crosses the router, the shard pool and the extra transport hop.  It is
   not a timed workload: it runs three server processes and the client on
   two cores, so its end-to-end figures measure the scheduler as much as
   the service (its throughput spread by up to 0.26 of the median over ten
   runs, beyond the 0.25 bound).  Only [small-multi]'s traced run serves
   it, for the router's own instruments. *)
let routed =
  {
    small_multi with
    name = "routed";
    why = "small-multi behind the router and two shard workers";
    legacy = "P15";
    shards = 2;
  }

(* The extra shape a workload's traced run also serves. *)
let traced_extra w = if w.name = small_multi.name then Some routed else None

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The variants the repository holds: those of the connections, in order of
   first use. *)
let variants w =
  List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) []
    w.conns

(* The percentile reported as [<class>_tail_ms], the same for every class
   of every workload so two commits always compare the same one.  It is
   p75, not the p99 a calm machine would allow: on a two-vCPU virtual
   machine whose host steals CPU time now and then (often 10-25% for
   minutes at a time), p90 of a ten-second run spread over ten runs by up
   to 0.45 of its median and p99 read up to 3x higher, while p75 stays
   close to the median's steadiness.  Every class of every workload has at
   least ten samples beyond it in a ten-second run. *)
let tail = 75.0

let server_args w =
  (if w.shards > 1 then [ "--shards"; string_of_int w.shards ] else [])
  @
  if w.fsync_delay_ms > 0.0 then
    [ "--fsync-delay-ms"; Printf.sprintf "%g" w.fsync_delay_ms ]
  else []

let fsync_model w =
  if w.fsync_delay_ms > 0.0 then
    Printf.sprintf "real fsync + %g ms injected delay" w.fsync_delay_ms
  else "real fsync"

(* Server processes: the router plus one worker per shard, or just one. *)
let server_processes w = if w.shards > 1 then w.shards + 1 else 1

(* ---- the generator ------------------------------------------------------ *)

let interface_names w =
  match w.schema with
  | Small -> small_interfaces
  | Synth n -> Array.init n (Printf.sprintf "T%d")

(* Attribute names a query may ask for: ones the schema declares ([Synth]
   interfaces declare [a<i>_<k>], three each). *)
let random_attr w rng =
  match w.schema with
  | Small -> small_attrs.(Random.State.int rng (Array.length small_attrs))
  | Synth n ->
      Printf.sprintf "a%d_%d" (Random.State.int rng n) (Random.State.int rng 3)

(* Writes alternate add and delete once [live_cap] attributes are live, so
   the schema size stays constant however long a run lasts.  Attribute
   names carry the connection number, so connections sharing a variant
   never touch each other's attributes. *)
let live_cap = 4

type gen = {
  w : t;
  conn : int;
  names : string array;  (** the workload's interface names *)
  rng : Random.State.t;
  mutable pos : int;
  mutable next_attr : int;
  live : (string * string) Queue.t;  (** (interface, attribute), oldest first *)
}

let generator w ~seed ~conn =
  {
    w;
    conn;
    names = interface_names w;
    rng = Random.State.make [| seed; conn; Hashtbl.hash w.name |];
    pos = 0;
    next_attr = 0;
    live = Queue.create ();
  }

let pick rng a = a.(Random.State.int rng (Array.length a))

let write_line g =
  if Queue.length g.live >= live_cap then
    let iface, attr = Queue.pop g.live in
    Printf.sprintf "apply delete_attribute(%s, %s)" iface attr
  else begin
    let iface = pick g.rng g.names in
    let attr = Printf.sprintf "pb%d_%d" g.conn g.next_attr in
    g.next_attr <- g.next_attr + 1;
    Queue.push (iface, attr) g.live;
    Printf.sprintf "apply add_attribute(%s, string, 8, %s)" iface attr
  end

(* The next request of this connection, with its class. *)
let next g =
  let c = List.nth g.w.cycle (g.pos mod List.length g.w.cycle) in
  g.pos <- g.pos + 1;
  let line =
    match c with
    | Write -> write_line g
    | Read -> "show ww:" ^ pick g.rng g.names
    | Query -> "@query attr " ^ random_attr g.w g.rng
  in
  (c, line)

(* The ops journalled into the variant before the server starts
   ([seeded_ops] adds on random interfaces), as designer command lines. *)
let seeded_lines w ~seed =
  let rng = Random.State.make [| seed; -1; Hashtbl.hash w.name |] in
  List.init w.seeded_ops (fun k ->
      Printf.sprintf "apply add_attribute(%s, string, 8, seed_%d)"
        (pick rng (interface_names w))
        k)

(* Queries every connection sends once traffic stops; their answers are
   compared with a from-scratch evaluation on the reopened repository. *)
let final_queries w =
  [ "@query attr \"pb*\""; "@query name \"*\"" ]
  @
  match w.schema with
  | Small -> [ "@query wheel Person"; "@query attr name inherited" ]
  | Synth _ -> [ "@query isa T0 down"; "@query wheel T1"; "@query partof T0" ]
