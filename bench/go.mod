module dmcc/bench

go 1.22

require dmcc v0.0.0

replace dmcc => ../
