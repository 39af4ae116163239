(* Just enough JSON to read the service's [@stats json] snapshots and to
   print the benchmark's result line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Int of int  (** printed without a fraction *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" text.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then
      raise (Error (Printf.sprintf "expected %c at offset %d" c !pos));
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else raise (Error (Printf.sprintf "bad literal at offset %d" !pos))
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Error "unterminated string");
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let code = int_of_string ("0x" ^ String.sub text !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar b
                (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                ws ();
                fields ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Error (Printf.sprintf "bad object at %d" !pos))
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> raise (Error (Printf.sprintf "bad array at %d" !pos))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" text.[!pos] do
          incr pos
        done;
        if !pos = start then raise (Error (Printf.sprintf "bad value at %d" start));
        Num (float_of_string (String.sub text start (!pos - start)))
  in
  let v = value () in
  ws ();
  if !pos <> n then raise (Error "trailing characters");
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let rec path ks v =
  match ks with
  | [] -> Some v
  | k :: rest -> Option.bind (member k v) (path rest)

let num = function Some (Num f) -> f | _ -> 0.0

(* ---- printing ----------------------------------------------------------- *)

let quote s = Obs.Export.json_string s

(* Every digit a float carries, so repeated runs never read identical by
   rounding.  JSON has no NaN: a statistic of no samples prints as 0. *)
let number f =
  if Float.is_nan f then "0.0"
  else if Float.is_integer f then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Int i -> string_of_int i
  | Str s -> quote s
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) kvs)
      ^ "}"

(* Objects and arrays that hold only scalars on one line, the others one
   member a line: the layout of BENCHMARK.json. *)
let rec pretty ?(indent = "") v =
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let inner = indent ^ "  " in
  let block l r items =
    let lines = String.concat ",\n" (List.map (( ^ ) inner) items) in
    l ^ "\n" ^ lines ^ "\n" ^ indent ^ r
  in
  match v with
  | Arr vs when not (List.for_all scalar vs) ->
      block "[" "]" (List.map (pretty ~indent:inner) vs)
  | Obj kvs when not (List.for_all (fun (_, v) -> scalar v) kvs) ->
      block "{" "}"
        (List.map (fun (k, v) -> quote k ^ ": " ^ pretty ~indent:inner v) kvs)
  | v -> to_string v
