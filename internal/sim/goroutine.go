package sim

// The server host gives each process its own server goroutine, reached
// over channels: two exchanges per round, both processes working at once,
// no memory touched by more than one goroutine.

// call is one exchange with a server: the round's Send, or its Receive
// (when deliver is set) followed by Decision (when decide is set).
type call struct {
	round                 int
	send, deliver, decide bool
	msg                   Message
}

// reply answers a call: the message sent, or the decision.
type reply struct {
	msg   Message
	value Value
	ok    bool
	fault *fault
}

type servers struct {
	calls   [2]chan call
	replies [2]chan reply
}

// serve starts one server per process. With one call outstanding and a
// one-slot reply buffer a server never blocks on replying; close ends it.
func serve(procs [2]Process) *servers {
	s := &servers{}
	for i, p := range procs {
		calls, replies := make(chan call), make(chan reply, 1)
		s.calls[i], s.replies[i] = calls, replies
		go func() {
			for c := range calls {
				var rep reply
				if c.send {
					rep.msg, rep.ok, rep.fault = trySend(p, c.round)
				} else if c.deliver {
					rep.fault = tryReceive(p, c.round, c.msg)
				}
				if c.decide && rep.fault == nil {
					rep.value, rep.ok, rep.fault = tryDecision(p)
				}
				replies <- rep
			}
		}()
	}
	return s
}

func (s *servers) close() {
	for _, c := range s.calls {
		close(c)
	}
}

// collect takes the replies of the live processes in process order.
func (s *servers) collect(x *execution, r int) (reps [2]reply) {
	for i, c := range s.replies {
		if !x.crashed[i] {
			reps[i] = <-c
			x.fail(ID(i), r, reps[i].fault)
		}
	}
	return reps
}
