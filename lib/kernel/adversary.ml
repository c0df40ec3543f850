module Prng = Asyncolor_util.Prng

type t = {
  name : string;
  next : time:int -> unfinished:int list -> int list option;
}

let make ~name next = { name; next }

let synchronous =
  make ~name:"synchronous" (fun ~time:_ ~unfinished ->
      match unfinished with [] -> None | l -> Some l)

let sequential =
  make ~name:"sequential" (fun ~time:_ ~unfinished ->
      match unfinished with [] -> None | p :: _ -> Some [ p ])

let round_robin =
  make ~name:"round-robin" (fun ~time ~unfinished ->
      match unfinished with
      | [] -> None
      | l -> Some [ List.nth l ((time - 1) mod List.length l) ])

let singletons prng =
  make ~name:"random-singletons" (fun ~time:_ ~unfinished ->
      match unfinished with
      | [] -> None
      | l -> Some [ List.nth l (Prng.int prng (List.length l)) ])

let random_subsets prng ~p =
  make ~name:(Printf.sprintf "random-subsets(p=%.2f)" p) (fun ~time:_ ~unfinished ->
      match unfinished with
      | [] -> None
      | l -> (
          match List.filter (fun _ -> Prng.float prng 1.0 < p) l with
          | [] -> Some [ List.nth l (Prng.int prng (List.length l)) ]
          | subset -> Some subset))

let alternating_waves =
  make ~name:"alternating-waves" (fun ~time ~unfinished ->
      match unfinished with
      | [] -> None
      | l -> (
          let parity = time mod 2 in
          match List.filter (fun p -> p mod 2 = parity) l with
          | [] -> Some l
          | wave -> Some wave))

let staircase =
  make ~name:"staircase" (fun ~time ~unfinished ->
      match unfinished with
      | [] -> None
      | l ->
          let len = min time (List.length l) in
          Some (List.filteri (fun i _ -> i < len) l))

let crash ~at ~procs inner =
  let crashed p = List.mem p procs in
  make ~name:(Printf.sprintf "%s+crash@%d" inner.name at) (fun ~time ~unfinished ->
      if time < at then inner.next ~time ~unfinished
      else
        match List.filter (fun p -> not (crashed p)) unfinished with
        | [] -> None
        | alive -> (
            match inner.next ~time ~unfinished:alive with
            | None -> None
            | Some set -> Some (List.filter (fun p -> not (crashed p)) set)))

let random_crashes prng ~n ~rate ~horizon inner =
  let crash_time =
    Array.init n (fun _ ->
        if Prng.float prng 1.0 < rate then Some (Prng.int_in prng 1 horizon) else None)
  in
  let crashed p time =
    p < n && match crash_time.(p) with Some t -> time >= t | None -> false
  in
  make
    ~name:(Printf.sprintf "%s+random-crashes(rate=%.2f)" inner.name rate)
    (fun ~time ~unfinished ->
      match List.filter (fun p -> not (crashed p time)) unfinished with
      | [] -> None
      | alive -> (
          match inner.next ~time ~unfinished:alive with
          | None -> None
          | Some set -> Some (List.filter (fun p -> not (crashed p time)) set)))

let isolate_pair (p, q) =
  make ~name:(Printf.sprintf "isolate-pair(%d,%d)" p q) (fun ~time:_ ~unfinished ->
      match unfinished with
      | [] -> None
      | l -> (
          match List.filter (fun v -> v <> p && v <> q) l with
          | [] -> Some (List.filter (fun v -> v = p || v = q) l)
          | others -> Some others))

let parse s =
  let fail () = invalid_arg (Printf.sprintf "Adversary.parse: malformed schedule %S" s) in
  let s = String.trim s in
  if s = "" then []
  else begin
    let sets = ref [] in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      while !i < len && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\n') do incr i done;
      if !i < len then begin
        if s.[!i] <> '{' then fail ();
        let close =
          match String.index_from_opt s !i '}' with Some j -> j | None -> fail ()
        in
        let body = String.sub s (!i + 1) (close - !i - 1) in
        let set =
          if String.trim body = "" then []
          else
            String.split_on_char ',' body
            |> List.map (fun tok ->
                   match int_of_string_opt (String.trim tok) with
                   | Some v -> v
                   | None -> fail ())
        in
        sets := set :: !sets;
        i := close + 1
      end
    done;
    List.rev !sets
  end

let to_string sets =
  String.concat " "
    (List.map
       (fun set -> "{" ^ String.concat "," (List.map string_of_int set) ^ "}")
       sets)

let finite sets =
  let sets = Array.of_list sets in
  make ~name:"finite-replay" (fun ~time ~unfinished ->
      if time - 1 >= Array.length sets || unfinished = [] then None
      else Some sets.(time - 1))
