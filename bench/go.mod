module scalana/bench

go 1.22

require scalana v0.0.0

replace scalana => ../
