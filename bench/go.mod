module bytescheduler/bench

go 1.22

require bytescheduler v0.0.0

replace bytescheduler => ../
