(* --- emission --------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Chrome's ts/dur are microseconds; three decimals keep full nanosecond
   resolution and a fixed textual form (golden-test determinism). *)
let us buf ns = Buffer.add_string buf (Printf.sprintf "%.3f" (Int64.to_float ns /. 1000.))

let add_args buf args =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape buf k;
      Buffer.add_char buf ':';
      escape buf v)
    args;
  Buffer.add_char buf '}'

let chrome_string t =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event emit =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    {";
    emit ();
    Buffer.add_char buf '}'
  in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  List.iter
    (fun (tid, name) ->
      event (fun () ->
          Buffer.add_string buf "\"ph\":\"M\",\"pid\":0,\"tid\":";
          Buffer.add_string buf (string_of_int tid);
          Buffer.add_string buf ",\"name\":\"thread_name\",";
          add_args buf [ ("name", name) ]))
    (Obs.lanes t);
  List.iter
    (fun (r : Obs.span_record) ->
      event (fun () ->
          Buffer.add_string buf "\"ph\":\"X\",\"pid\":0,\"tid\":";
          Buffer.add_string buf (string_of_int r.r_tid);
          Buffer.add_string buf ",\"name\":";
          escape buf r.r_name;
          Buffer.add_string buf ",\"ts\":";
          us buf r.r_start;
          Buffer.add_string buf ",\"dur\":";
          us buf r.r_dur;
          Buffer.add_char buf ',';
          add_args buf r.r_args))
    (Obs.spans t);
  (* Final counter samples, all at one export-time instant: the trace
     shows each metric's end-of-run value as a counter track. *)
  let sample_ts = Obs.now t in
  List.iter
    (fun (name, value) ->
      event (fun () ->
          Buffer.add_string buf "\"ph\":\"C\",\"pid\":0,\"tid\":0,\"name\":";
          escape buf name;
          Buffer.add_string buf ",\"ts\":";
          us buf sample_ts;
          Buffer.add_string buf
            (Printf.sprintf ",\"args\":{\"value\":%d}" value)))
    (Obs.metrics t);
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

let write_chrome t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (chrome_string t))

let metrics_table t =
  String.concat ""
    (List.map (fun (name, v) -> Printf.sprintf "%s %d\n" name v) (Obs.metrics t))

(* --- validation ------------------------------------------------------- *)

(* A strict, minimal JSON reader — just enough structure to check that a
   trace file is what a viewer will accept.  Kept private to this module. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad of int * string  (* byte position, reason *)

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos >= n then fail "unexpected end of input" else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c) else advance ()
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | '"' -> advance (); Buffer.contents buf
      | '\\' -> (
          advance ();
          match peek () with
          | '"' -> Buffer.add_char buf '"'; advance (); loop ()
          | '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
          | '/' -> Buffer.add_char buf '/'; advance (); loop ()
          | 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
          | 'f' -> Buffer.add_char buf '\012'; advance (); loop ()
          | 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
          | 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
          | 't' -> Buffer.add_char buf '\t'; advance (); loop ()
          | 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "bad \\u escape"
              | Some code ->
                  (* Validation only: a BMP escape round-trips as '?', we
                     never re-emit the parsed value. *)
                  Buffer.add_char buf (if code < 0x80 then Char.chr code else '?'));
              pos := !pos + 4;
              loop ()
          | c -> fail (Printf.sprintf "bad escape \\%c" c))
      | c when Char.code c < 0x20 -> fail "unescaped control character in string"
      | c -> Buffer.add_char buf c; advance (); loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do advance () done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> pos := start; fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Jobj [])
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}' in object"
          in
          members ();
          Jobj (List.rev !fields)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); Jarr [])
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']' in array"
          in
          elements ();
          Jarr (List.rev !items)
        end
    | '"' -> Jstr (parse_string ())
    | 't' -> parse_lit "true" (Jbool true)
    | 'f' -> parse_lit "false" (Jbool false)
    | 'n' -> parse_lit "null" Jnull
    | '-' | '0' .. '9' -> Jnum (parse_number ())
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after JSON value";
  v

let field obj k = match obj with Jobj fs -> List.assoc_opt k fs | _ -> None

let validate_string s =
  match parse_json s with
  | exception Bad (pos, msg) ->
      Error (Printf.sprintf "not valid JSON (byte %d: %s)" pos msg)
  | Jobj _ as top -> (
      match field top "traceEvents" with
      | None -> Error "top-level object has no \"traceEvents\" key"
      | Some (Jarr events) -> (
          let check i ev =
            let ctx msg = Printf.sprintf "traceEvents[%d]: %s" i msg in
            match ev with
            | Jobj _ -> (
                match (field ev "ph", field ev "name") with
                | Some (Jstr ph), Some (Jstr _) -> (
                    let num k =
                      match field ev k with Some (Jnum f) -> Some f | _ -> None
                    in
                    match (num "pid", num "tid") with
                    | Some _, Some _ -> (
                        match ph with
                        | "X" -> (
                            match (num "ts", num "dur") with
                            | Some _, Some d when d >= 0. -> Ok ()
                            | Some _, Some _ -> Error (ctx "negative dur")
                            | _ -> Error (ctx "complete event without numeric ts/dur"))
                        | "M" | "C" | "B" | "E" | "I" | "i" -> Ok ()
                        | ph -> Error (ctx (Printf.sprintf "unknown phase %S" ph)))
                    | _ -> Error (ctx "missing numeric pid/tid"))
                | _ -> Error (ctx "missing string ph/name"))
            | _ -> Error (ctx "not an object")
          in
          let rec all i = function
            | [] -> Ok (List.length events)
            | ev :: rest -> (
                match check i ev with Ok () -> all (i + 1) rest | Error e -> Error e)
          in
          all 0 events)
      | Some _ -> Error "\"traceEvents\" is not an array")
  | _ -> Error "top level is not a JSON object"

let validate path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> validate_string s
