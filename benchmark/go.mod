module qgraph/benchmark

go 1.24

require qgraph v0.0.0

replace qgraph => ../
