module qpp/bench

go 1.22

require qpp v0.0.0

replace qpp => ../
