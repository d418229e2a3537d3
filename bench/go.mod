module dynstream/bench

go 1.21

require dynstream v0.0.0

replace dynstream => ../
