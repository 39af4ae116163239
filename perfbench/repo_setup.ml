(* Build the repository a workload's server starts on, and the designer
   state it starts from (the oracle the correctness check replays on). *)

module Repo = Repository.Repo
module Engine = Designer.Engine

let shrink_wrap (w : Workload.t) =
  match w.schema with
  | Small -> Odl.Parser.parse_schema Workload.small_schema_text
  | Synth n -> Schemas.Synth.generate (Schemas.Synth.default_params ~n_types:n)

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let ok_or_fail what = function
  | Ok v -> v
  | Error m -> failwith (what ^ ": " ^ m)

(* Run designer command lines on a state, failing on any rejection. *)
let exec_all state lines =
  List.fold_left
    (fun st line ->
      let st', fb = Engine.exec_line st line in
      if List.exists Designer.Feedback.is_error fb then
        failwith
          (Printf.sprintf "%s: %s" line
             (String.concat "; " (List.map Designer.Feedback.to_string fb)));
      st')
    state lines

(* Fresh repository at [dir]: the workload's shrink wrap schema, its
   variants, and the seeded ops journalled into each variant.  Returns the
   designer state every variant holds when the server opens it (focused),
   detached from the repository: the oracle the correctness check and the
   layer replay start from. *)
let prepare (w : Workload.t) ~seed ~dir =
  remove_tree dir;
  mkdir_p (Filename.dirname dir);
  let repo = ok_or_fail "init" (Repo.init dir (shrink_wrap w)) in
  let lines = ("focus " ^ w.focus) :: Workload.seeded_lines w ~seed in
  let states =
    List.map
      (fun v ->
        let session = ok_or_fail "create variant" (Repo.create_variant repo v) in
        exec_all (Engine.start ~repo:(Repo.variant_store repo v) session) lines)
      (Workload.variants w)
  in
  { (List.hd states) with Engine.repo = None }
