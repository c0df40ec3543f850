let mutex = Mutex.create ()
let channel = ref stderr

let set_channel oc =
  Mutex.lock mutex;
  channel := oc;
  Mutex.unlock mutex

let emit s =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      output_string !channel s;
      flush !channel)
