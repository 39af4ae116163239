(* The service under test as a separate process: spawn [swsd serve], talk
   to it over its Unix socket, read its memory high-water mark, and drain
   it with SIGTERM. *)

module Client = Server.Client

let swsd = "_build/default/bin/swsd.exe"

type t = { pid : int; socket : string; log : string }

(* Servers spawned and not yet stopped, for {!kill_all}. *)
let live = ref []

let spawn ~dir ~socket ~log ~no_obs w =
  let args =
    [ swsd; "serve"; dir; "--socket"; socket ]
    @ (if no_obs then [ "--no-obs" ] else [])
    @ Workload.server_args w
  in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process swsd (Array.of_list args) devnull out out
  in
  Unix.close out;
  Unix.close devnull;
  let t = { pid; socket; log } in
  live := t :: !live;
  t

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* Connect once the server listens: single attempts 1 ms apart, so the
   set-up time tracks when the server became ready, not a client's
   backoff. *)
let connect socket =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Client.connect socket with
    | Ok c -> c
    | Error m ->
        if Unix.gettimeofday () > deadline then fail "connect %s: %s" socket m;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

(* Connect, consume the greeting, and open [variant]. *)
let attach t variant =
  let c = connect t.socket in
  match Client.read_response c with
  | None -> fail "%s: server hung up before greeting" t.socket
  | Some _ -> (
      match Client.request c ("@open " ^ variant) with
      | Some lines when List.mem "!ok" lines -> c
      | Some lines -> fail "@open %s: %s" variant (String.concat " | " lines)
      | None -> fail "@open %s: server hung up" variant)

let body lines =
  List.filter_map
    (fun l ->
      if String.length l >= 2 && String.sub l 0 2 = ". " then
        Some (String.sub l 2 (String.length l - 2))
      else None)
    lines

(* The [@stats json] snapshot; under [--shards] the router merges one
   object per process ([router], [shard-0], ...). *)
let stats c =
  match Client.request c "@stats json" with
  | Some lines when List.mem "!ok" lines ->
      Json.parse (String.concat "\n" (body lines))
  | Some lines -> fail "@stats json: %s" (String.concat " | " lines)
  | None -> fail "@stats json: server hung up"

(* Direct children of [pid] (the shard workers of a router). *)
let children pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some p -> (
             match In_channel.with_open_text
                     (Printf.sprintf "/proc/%d/stat" p) In_channel.input_all
             with
             | exception Sys_error _ -> None
             | stat -> (
                 (* the command name is parenthesised and may hold spaces *)
                 let after = String.rindex stat ')' in
                 match
                   String.split_on_char ' '
                     (String.sub stat (after + 2)
                        (String.length stat - after - 2))
                 with
                 | _state :: ppid :: _ when int_of_string_opt ppid = Some pid ->
                     Some p
                 | _ -> None)))

let vm_hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_lines
  with
  | exception Sys_error _ -> 0
  | lines ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d" (fun kb -> kb)
          | _ -> acc)
        0 lines

(* Peak resident memory of every server process, in MB. *)
let rss_mb t =
  List.fold_left
    (fun acc p -> acc +. float_of_int (vm_hwm_kb p) /. 1024.0)
    0.0
    (t.pid :: children t.pid)

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.01;
        wait_exit pid deadline
      end
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid deadline

let alive p = try Unix.kill p 0; true with Unix.Unix_error _ -> false

(* Graceful drain: SIGTERM, wait for exit 0, and make sure no worker of a
   router outlives it.  Anything still running after the grace period is
   killed, and the stop counts as failed. *)
let stop t =
  live := List.filter (fun s -> s.pid <> t.pid) !live;
  let workers = children t.pid in
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = wait_exit t.pid (Unix.gettimeofday () +. 30.0) in
  (match status with
  | None ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid)
  | Some _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    let left = List.filter alive workers in
    if left <> [] then
      if Unix.gettimeofday () > deadline then
        List.iter
          (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
          left
      else begin
        Unix.sleepf 0.01;
        reap ()
      end
  in
  reap ();
  match status with
  | Some (Unix.WEXITED 0) -> Ok ()
  | Some (Unix.WEXITED n) -> Error (Printf.sprintf "server exited %d" n)
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Error (Printf.sprintf "server killed by signal %d" n)
  | None -> Error "server did not drain within 30 s"

(* Last resort when a run overstays its time: SIGKILL every live server
   and its workers, and reap the servers. *)
let kill_all () =
  List.iter
    (fun t ->
      List.iter
        (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
        (t.pid :: children t.pid);
      try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* [swsd fsck DIR]; exit 0 means clean. *)
let fsck ~dir ~log =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process swsd [| swsd; "fsck"; dir |] devnull out out in
  Unix.close out;
  Unix.close devnull;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> Ok ()
  | Unix.WEXITED n -> Error (Printf.sprintf "swsd fsck exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "swsd fsck killed by signal %d" n)
