module p2panon/benchmark

go 1.22

require p2panon v0.0.0

replace p2panon => ../
