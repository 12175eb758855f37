//go:build go1.23

package sim

import "iter"

// newCoroutine binds p to a new runtime coroutine whose body is procLoop.
// iter.Pull is the standard library's handle on the runtime's coroutine
// switch: next transfers control straight to the coroutine's goroutine and
// blocks the caller until the coroutine yields, without a trip through the
// scheduler's run queue. The values passed are empty; the wake reason
// travels in p.reason.
//
// The file needs a go1.23 toolchain; the build constraint raises its
// language version above the module's so the rest of the module keeps
// building under the go directive in go.mod.
func (e *Engine) newCoroutine(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		e.procLoop(p)
	})
}
