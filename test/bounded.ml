(* qcheck arbitraries whose shrinkers stay inside their generator's
   range.  [QCheck.int_range lo hi] shrinks toward 0, so a property that
   draws n from [3, 8] can report a counterexample at n = 2: a value it
   never draws, for which no cycle exists, and so a different failure
   from the one it found. *)

(* Uniform on [lo, hi], shrinking toward [lo]: every shrink candidate of
   [x] lies in [lo, x). *)
let int_range lo hi =
  QCheck.make ~print:string_of_int
    ~shrink:(fun x yield -> QCheck.Shrink.int (x - lo) (fun d -> yield (lo + d)))
    (QCheck.Gen.int_range lo hi)
