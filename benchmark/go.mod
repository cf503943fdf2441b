module datacell/benchmark

go 1.23

require datacell v0.0.0

replace datacell => ../
