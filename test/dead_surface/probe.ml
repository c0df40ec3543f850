let used x = x + 1
let unused x = x - 1
