(* Closed-loop load: one request in flight per connection, the next
   request sent only once the previous answer arrived (a designer waits
   for each answer).  Every request is recorded with its
   answer, for the metrics and for the correctness check. *)

module Client = Server.Client

type sample = {
  conn : int;
  cls : Workload.cls;
  line : string;
  start : float;
  finish : float;
  response : string list;  (** body, [#version], status *)
}

(* Monotonic, nanosecond resolution: sub-microsecond spans and
   tens-of-microseconds latencies are not rounded to the wall clock's
   microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let ok s = List.mem "!ok" s.response

let version s =
  List.find_map
    (fun l -> Scanf.sscanf_opt l "#version %d%!" (fun v -> v))
    s.response

(* Total and stolen jiffies of the whole machine, from /proc/stat.  A
   virtual machine's host can take a share of its CPU time ("steal"); while
   it does, a round trip between two processes slows by up to 3x. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | "cpu" :: fields ->
          let xs = List.filter_map int_of_string_opt fields in
          (List.fold_left ( + ) 0 xs, try List.nth xs 7 with _ -> 0)
      | _ -> (0, 0))
  | None | (exception Sys_error _) -> (0, 0)

let steal_between (t0, s0) (t1, s1) =
  if t1 <= t0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* The measured window is a run of one-second slices, by request start
   time.  A slice is calm when the host stole at most [calm_steal] of the
   machine's time during it.  Traffic goes on until [seconds] calm slices
   are in, or for at most [cap_factor * seconds]; the metrics are taken
   over the calm slices, or over the least-stolen slice when none is
   calm.  On a calm machine that is exactly [seconds] seconds of traffic;
   on a contended one the numbers come from its calm moments, the same
   way for every commit.  A slice with a few percent of steal is not a
   little slower but up to half as fast: a stolen millisecond stalls a
   round trip that takes a tenth of one. *)
let slice_width = 1.0
let calm_steal = 0.02
let cap_factor = 2.0

type result = {
  samples : sample array;  (** every request, warm-up included *)
  window_start : float;  (** samples started before this are warm-up *)
  steal : float array;  (** share of CPU time stolen in each slice *)
  chosen : int list;  (** the slices the metrics are taken over *)
  hung_up : int;  (** requests that got no answer *)
}

(* The slices the metrics are taken over, in time order: every calm one,
   or the least-stolen one (the earliest of a tie) when none is calm. *)
let choose steal =
  let ranked =
    List.init (Array.length steal) (fun i -> (steal.(i), i)) |> List.sort compare
  in
  match List.filter (fun (st, _) -> st <= calm_steal) ranked with
  | [] -> List.filteri (fun rank _ -> rank = 0) ranked |> List.map snd
  | calm -> List.map snd calm |> List.sort compare

(* One connection of the load loop: the request in flight and the bytes
   of its answer read so far. *)
type conn = {
  k : int;
  fd : Unix.file_descr;
  gen : Workload.gen;
  mutable cls : Workload.cls;
  mutable line : string;
  mutable start : float;
  mutable pending : string;  (** bytes after the last complete line *)
  mutable lines : string list;  (** answer lines so far, newest first *)
  mutable busy : bool;  (** a request is in flight *)
  mutable acc : sample list;  (** answered requests, newest first *)
}

let send c =
  let cls, line = Workload.next c.gen in
  let b = Bytes.of_string (line ^ "\n") in
  c.cls <- cls;
  c.line <- line;
  c.lines <- [];
  c.busy <- true;
  c.start <- now ();
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

(* Split what was read into lines; [Some response] once the terminator of
   the answer in flight arrived. *)
let take c chunk =
  let parts = String.split_on_char '\n' (c.pending ^ chunk) in
  let rec go = function
    | [ rest ] ->
        c.pending <- rest;
        None
    | l :: more ->
        c.lines <- l :: c.lines;
        if Server.Protocol.is_terminator l then begin
          c.pending <- String.concat "\n" more;
          Some (List.rev c.lines)
        end
        else go more
    | [] -> None
  in
  go parts

(* The load loop.  A single thread drives every connection with select:
   no client threads compete for the OCaml runtime lock or a core with the
   server, and no thread wake-up sits inside a timed request.
   [at_writes = (n, f)]: [f] runs once, in the loop, when the [n]th write
   is acknowledged, outside any timed request. *)
let run ~clients ~gens ~warmup ~seconds ~at_writes =
  let t0 = now () in
  let window_start = t0 +. warmup in
  let target = max 1 (int_of_float seconds) in
  let cap = int_of_float (Float.ceil (cap_factor *. float_of_int target)) in
  let conns =
    List.mapi
      (fun k (c, gen) ->
        {
          k;
          fd = Client.fd c;
          gen;
          cls = Workload.Write;
          line = "";
          start = 0.0;
          pending = "";
          lines = [];
          busy = false;
          acc = [];
        })
      (List.combine clients gens)
  in
  let writes = ref 0 and hung_up = ref 0 in
  let chunk = Bytes.create 65536 in
  let answer c response =
    let s =
      { conn = c.k; cls = c.cls; line = c.line; start = c.start;
        finish = now (); response }
    in
    c.busy <- false;
    c.acc <- s :: c.acc;
    if s.cls = Workload.Write && ok s then begin
      incr writes;
      if !writes = fst at_writes then snd at_writes ()
    end
  in
  (* a request that cannot be sent or answered counts as lost *)
  let lost c =
    c.busy <- false;
    incr hung_up
  in
  let send c = try send c with Unix.Unix_error _ -> lost c in
  (* serve answers until [deadline]; with [stopping], send nothing new and
     return once no request is in flight, or once the server has been
     silent for 30 s *)
  let rec pump ~deadline ~stopping =
    let waiting = List.filter (fun c -> c.busy) conns in
    let left = deadline -. now () in
    if waiting = [] || ((not stopping) && left <= 0.0) then ()
    else
      let timeout = if stopping then 30.0 else left in
      match Unix.select (List.map (fun c -> c.fd) waiting) [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ~deadline ~stopping
      | [], _, _ when stopping -> List.iter lost waiting
      | ready, _, _ ->
          List.iter
            (fun c ->
              if List.mem c.fd ready then
                match Unix.read c.fd chunk 0 (Bytes.length chunk) with
                | 0 | (exception Unix.Unix_error _) -> lost c
                | n -> (
                    match take c (Bytes.sub_string chunk 0 n) with
                    | None -> ()
                    | Some response ->
                        answer c response;
                        if not stopping then send c))
            waiting;
          pump ~deadline ~stopping
  in
  List.iter send conns;
  pump ~deadline:window_start ~stopping:false;
  let rec slices i mark calm acc =
    if calm >= target || i >= cap then List.rev acc
    else begin
      pump
        ~deadline:(window_start +. (float_of_int (i + 1) *. slice_width))
        ~stopping:false;
      let mark' = cpu_jiffies () in
      let st = steal_between mark mark' in
      slices (i + 1) mark' (if st <= calm_steal then calm + 1 else calm) (st :: acc)
    end
  in
  let steal = Array.of_list (slices 0 (cpu_jiffies ()) 0 []) in
  pump ~deadline:(now ()) ~stopping:true;
  {
    samples =
      Array.of_list (List.concat_map (fun c -> List.rev c.acc) conns);
    window_start;
    steal;
    chosen = choose steal;
    hung_up = !hung_up;
  }

(* The measured samples of each slice, by start time; requests started
   after the last slice closed belong to none. *)
let slices r =
  let parts = Array.make (Array.length r.steal) [] in
  Array.iter
    (fun (s : sample) ->
      let i =
        Float.to_int (Float.floor ((s.start -. r.window_start) /. slice_width))
      in
      if i >= 0 && i < Array.length parts then parts.(i) <- s :: parts.(i))
    r.samples;
  parts

let chosen_slices r =
  let parts = slices r in
  List.map (fun i -> parts.(i)) r.chosen

let rate part =
  float_of_int (List.length (List.filter ok part)) /. slice_width

(* Answered [!ok] per second in every slice run. *)
let slice_rates r = Array.to_list (Array.map rate (slices r))

let class_ms cls samples =
  samples
  |> List.filter (fun (s : sample) -> s.cls = cls && ok s)
  |> List.map (fun (s : sample) -> (s.finish -. s.start) *. 1000.0)
  |> Stats.sorted_of_list

(* Answered [!ok] per second, all classes: the median rate of the chosen
   slices, so that a slice the host slowed does not move it. *)
let throughput r = Stats.median (List.map rate (chosen_slices r))

(* Ascending latencies (ms) of one class's [!ok] answers in the chosen
   slices. *)
let latencies_ms r cls = class_ms cls (List.concat (chosen_slices r))

let attempted r = Array.length r.samples + r.hung_up

let failed r =
  r.hung_up
  + Array.fold_left (fun acc s -> if ok s then acc else acc + 1) 0 r.samples
