package proc

// SolveDamped is Solve under the fixed point the analytic model ran
// before Model named it: the same map, stepped with ½ damping alone. The
// tests keep it as the oracle the accelerated solve must agree with.
func (m *Machine) SolveDamped(tasks []Task, links []Link, placement []int) (Result, error) {
	w := new(workspace)
	if err := w.prepare(m, tasks, links, placement); err != nil {
		return Result{}, err
	}
	service := w.service
	for iter := 0; iter < solverMaxIter; iter++ {
		w.iterations = iter + 1
		w.slowdowns(m)
		maxDelta := 0.0
		for i, s := range service {
			newS := 0.5*s + 0.5*w.target(i)
			if delta := abs(newS-s) / s; delta > maxDelta {
				maxDelta = delta
			}
			service[i] = newS
		}
		w.updateRates()
		if maxDelta < solverTol {
			break
		}
	}
	return w.result(m), nil
}

// SolveSteps solves as Solve does and returns how many iterations the
// fixed point took and in how many of them the extrapolated step was
// refused for the damped one.
func (m *Machine) SolveSteps(tasks []Task, links []Link, placement []int) (iterations, fallbacks int, err error) {
	w := new(workspace)
	if err := w.solve(m, tasks, links, placement); err != nil {
		return 0, 0, err
	}
	return w.iterations, w.fallbacks, nil
}
