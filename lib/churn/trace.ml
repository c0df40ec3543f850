module Checkpoint = Asyncolor_resilience.Checkpoint

type t = {
  cfg : Session.config;
  seed : int;
  sessions : int;
  violations : (int * Session.violation) list;
}

(* Bump whenever [t] (or [Session.config]/[Session.violation]) changes
   shape — the container then rejects stale files cleanly instead of
   decoding garbage. *)
let version = 1

(* Discriminates churn traces from other users of the same container
   format (explorer checkpoints, fuzz traces): checked before the payload
   is trusted. *)
let fingerprint = "asyncolor-churn-trace"

let of_report (r : Session.report) =
  {
    cfg = r.Session.cfg;
    seed = r.Session.seed;
    sessions = r.Session.sessions;
    violations = r.Session.violations;
  }

let save ~path t = Checkpoint.save ~path ~version (fingerprint, t)

let load path =
  let tag, (t : t) = Checkpoint.load ~path ~version () in
  if tag <> fingerprint then
    raise
      (Checkpoint.Corrupt
         (Printf.sprintf "not a churn trace (payload tag %S)" tag));
  (* A trace file is attacker-controlled input to [replay]; reject
     structurally invalid payloads here with the container's own
     exception rather than failing deep inside the session engine. *)
  (match Session.validate_config t.cfg with
  | () -> ()
  | exception Invalid_argument msg -> raise (Checkpoint.Corrupt msg));
  if t.sessions < 1 then raise (Checkpoint.Corrupt "non-positive session count");
  List.iter
    (fun (s, _) ->
      if s < 0 || s >= t.sessions then
        raise
          (Checkpoint.Corrupt
             (Printf.sprintf "violation names session %d outside [0, %d)" s
                t.sessions)))
    t.violations;
  t

(* Re-run the campaign the trace came from and compare findings — true
   when every recorded violation reproduces byte-for-byte. *)
let replay ?(jobs = 1) ?obs (t : t) =
  let r =
    Session.campaign ?obs ~jobs t.cfg ~seed:t.seed ~sessions:t.sessions ()
  in
  (r, r.Session.violations = t.violations)

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,seed=%d sessions=%d@,%a@]" Session.pp_config
    t.cfg t.seed t.sessions
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut
       (fun ppf (s, (v : Session.violation)) ->
         Format.fprintf ppf "violation[s%d e%d %s]: %s" s v.Session.epoch
           v.Session.detector v.Session.message))
    t.violations
