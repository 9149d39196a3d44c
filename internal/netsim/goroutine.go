package netsim

import "context"

// The server host gives every live node its own server goroutine, as in
// the two-process kernel. The loop waits on a server only while ctx is
// live, so a node blocking in a method cannot hang the run. With one call
// outstanding and a one-slot reply buffer a server never blocks on
// replying, so closing its call channel releases it on every exit path;
// only a node that blocks forever inside a method pins its goroutine.

type servers struct {
	ctx     context.Context
	calls   []chan call
	replies []chan reply
}

// serve starts one server per live node. A server stops once its node
// panics: the loop never calls a crash-stopped node again.
func serve(ctx context.Context, x *execution) *servers {
	s := &servers{ctx: ctx, calls: make([]chan call, len(x.nodes)), replies: make([]chan reply, len(x.nodes))}
	for i, node := range x.nodes {
		calls, replies := make(chan call), make(chan reply, 1)
		s.calls[i], s.replies[i] = calls, replies
		if x.crashed[i] {
			continue
		}
		go func() {
			for c := range calls {
				rep := c.do(node, true)
				if replies <- rep; rep.fault != nil {
					return
				}
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
