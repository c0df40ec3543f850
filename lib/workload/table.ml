type t = { headers : string list; mutable rows : string list list }

let create ~headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: row width mismatch";
  t.rows <- row :: t.rows

let row_int = List.map string_of_int

let to_string t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length t.headers)
      rows
  in
  let render_row row =
    "| "
    ^ String.concat " | "
        (List.map2 (fun w cell -> cell ^ String.make (w - String.length cell) ' ') widths row)
    ^ " |"
  in
  let sep =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|"
  in
  String.concat "\n" (render_row t.headers :: sep :: List.map render_row rows)

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let line row = String.concat "," (List.map csv_cell row) in
  (* [t.rows] is stored newest-first; rev_map restores insertion order *)
  String.concat "\n" (line t.headers :: List.rev_map line t.rows) ^ "\n"

let write_csv path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_csv t))

let print t =
  print_string (to_string t);
  print_newline ()
