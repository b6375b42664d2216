(* Shared harness of the benchmark: monotonic timing, order statistics,
   JSON output through Ids_obs.Json, /proc readings and provenance. *)

module Obs = Ids_obs.Obs
module Json = Ids_obs.Json

let now_ns = Obs.now_ns
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6

(* [timed f] is [f ()] with its duration in nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

(* Median duration of [reps] calls of [f], in nanoseconds. *)
let median_ns reps f =
  let a = Array.init reps (fun _ -> snd (timed f)) in
  Array.sort compare a;
  float_of_int a.(reps / 2)

(* Fatal harness errors: the run prints no result line and exits 1. *)
let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 1) fmt

(* --- order statistics ------------------------------------------------------- *)

(* Linear-interpolated quantile of an unsorted sample, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* Set up [reps] times from scratch: the last result (earlier ones become
   garbage at once) and the median time in seconds, so one slow set-up does
   not move setup_s. *)
let setup_median reps f =
  let rec go i times =
    let x, ns = timed f in
    let times = (float_of_int ns /. 1e9) :: times in
    if i + 1 < reps then go (i + 1) times else (x, median times)
  in
  go 0 []

(* --- metrics and the result line -------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 9e15 then Printf.sprintf "%.0f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null"
  | Json.Str s -> json_string s
  | Json.Arr l -> "[" ^ String.concat "," (List.map json_to_string l) ^ "]"
  | Json.Obj kv ->
    "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_to_string v) kv) ^ "}"

let num_i i = Json.Num (float_of_int i)

let metrics_json ms =
  Json.Obj (List.map (fun m -> (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])) ms)

(* The result line, last on stdout: exactly these four keys. *)
let print_result ~correct ~attempted ~failed ms =
  List.iter
    (fun m -> if not (Float.is_finite m.value) then die "metric %s is not a finite number" m.name)
    ms;
  print_endline
    (json_to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", num_i attempted);
            ("failed", num_i failed);
            ("metrics", metrics_json ms)
          ]))

(* Human-readable lines go to stderr so stdout stays parseable. *)
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* --- /proc readings ---------------------------------------------------------- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))

(* Peak resident set (VmHWM) of a process in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.
  | Some s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> acc)
      0. (String.split_on_char '\n' s)

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Direct children of a process, from /proc/<pid>/task/<pid>/children. *)
let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

(* --- provenance --------------------------------------------------------------- *)

(* The checked-out commit when the tree is a git checkout, else "unknown". *)
let commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let head = trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with Some h -> trim h | None -> "unknown"
    else head

let provenance ~workload ~seed ~seconds ~trace =
  Json.Obj
    [ ("provenance", Json.Bool true);
      ("workload", Json.Str workload);
      ("seed", num_i seed);
      ("seconds", num_i seconds);
      ("trace", Json.Bool trace);
      ("commit", Json.Str (commit ()));
      ("kernel_use_c", Json.Bool Ids_bignum.Kernel.use_c);
      ("nproc", num_i (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version)
    ]

(* --- GC accounting ------------------------------------------------------------ *)

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_since m =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words -. m.minor_words, s.Gc.major_collections - m.major_collections)

(* --- span self times ----------------------------------------------------------- *)

(* Self time per span name: each span's duration minus the time its direct
   children (spans nested inside it on the same domain) cover. Returns
   [(name, count, total_ns, self_ns)] sorted by name. *)
let self_times (spans : Obs.span_record list) =
  let a = Array.of_list spans in
  Array.sort
    (fun (x : Obs.span_record) y ->
      compare (x.sdomain, x.start_ns, -x.dur_ns) (y.sdomain, y.start_ns, -y.dur_ns))
    a;
  let child = Array.make (Array.length a) 0 in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Obs.span_record) ->
      let rec pop = function
        | j :: rest
          when a.(j).sdomain <> s.sdomain || a.(j).start_ns + a.(j).dur_ns <= s.start_ns ->
          pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with j :: _ -> child.(j) <- child.(j) + s.dur_ns | [] -> ());
      stack := i :: !stack)
    a;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Obs.span_record) ->
      let c, tot, self = Option.value (Hashtbl.find_opt tbl s.sname) ~default:(0, 0, 0) in
      Hashtbl.replace tbl s.sname (c + 1, tot + s.dur_ns, self + s.dur_ns - child.(i)))
    a;
  List.sort compare (Hashtbl.fold (fun name (c, tot, self) acc -> (name, c, tot, self) :: acc) tbl [])

let span_self st name = List.fold_left (fun acc (n, _, _, s) -> if n = name then acc + s else acc) 0 st
let span_total st name = List.fold_left (fun acc (n, _, t, _) -> if n = name then acc + t else acc) 0 st

(* A per-layer self-time table on stderr and as one JSON line on stdout
   (before the result line): each row's share of [wall_ns], plus the
   remainder no row accounts for. *)
let layer_table ~workload ~wall_ns rows =
  let covered = List.fold_left (fun acc (_, ns) -> acc + ns) 0 rows in
  let rows = rows @ [ ("unattributed", wall_ns - covered) ] in
  let frac ns = float_of_int ns /. float_of_int (max 1 wall_ns) in
  note "per-layer self time, %s (wall %.3f s):" workload (s_of_ns wall_ns);
  List.iter (fun (name, ns) -> note "  %-28s %10.3f ms  %6.2f%%" name (ms_of_ns ns) (100. *. frac ns)) rows;
  print_endline
    (json_to_string
       (Json.Obj
          [ ("layer_table", Json.Str workload);
            ("wall_s", Json.Num (s_of_ns wall_ns));
            ( "rows",
              Json.Arr
                (List.map
                   (fun (name, ns) ->
                     Json.Obj [ ("layer", Json.Str name); ("self_s", Json.Num (s_of_ns ns)); ("frac", Json.Num (frac ns)) ])
                   rows) )
          ]));
  frac (wall_ns - covered)

(* --- host CPU steal -------------------------------------------------------------- *)

(* On a virtual machine the host can take CPU time from the guest ("steal",
   the eighth field of /proc/stat's cpu line). A window in which it took
   more than [max_steal] of all CPU time measures the host, not the
   program: runs keep such windows out of their medians when at least
   one clean window exists, and extend (up to twice their budget) until
   they have enough clean windows. *)
type ticks = { steal : int; total : int }

let cpu_ticks () =
  match read_file "/proc/stat" with
  | None -> { steal = 0; total = 0 }
  | Some s ->
    let line = List.hd (String.split_on_char '\n' s) in
    let fields = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
    { steal = Option.value (List.nth_opt fields 7) ~default:0; total = List.fold_left ( + ) 0 fields }

let steal_since t0 =
  let t1 = cpu_ticks () in
  float_of_int (t1.steal - t0.steal) /. float_of_int (max 1 (t1.total - t0.total))

let max_steal = 0.05
let is_clean (steal, _) = steal <= max_steal
let count_clean ws = List.length (List.filter is_clean ws)

(* The windows a run reports over: the clean ones, or all when none is. *)
let clean_windows ws =
  let c = List.filter is_clean ws in
  note "windows: %d of %d below %.0f%% host steal" (List.length c) (List.length ws) (100. *. max_steal);
  List.map snd (if c = [] then ws else c)

(* [windows ~budget_ns step] runs [step 0], [step 1], ... and returns each
   result with the host steal during it. It stops before a step that,
   at the mean step length so far, would end past [budget_ns] — but not
   before [min_count] steps, and not before [min_clean] clean ones while
   within twice the budget — and never runs more than [max_count]. *)
let windows ?(max_count = max_int) ?(min_clean = 0) ~min_count ~budget_ns step =
  let t0 = now_ns () in
  let rec go i acc =
    let elapsed = now_ns () - t0 in
    let next_end = if i = 0 then 0 else elapsed + (elapsed / i) in
    if
      i < max_count
      && (i < min_count || next_end <= budget_ns || (count_clean acc < min_clean && next_end <= 2 * budget_ns))
    then begin
      let ticks = cpu_ticks () in
      let w = step i in
      go (i + 1) ((steal_since ticks, w) :: acc)
    end
    else List.rev acc
  in
  go 0 []
