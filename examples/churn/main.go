// Churn: the Figure 10 "multiple join/leave" regime made visible. A
// 32-node plant runs in steady state; then 20 nodes join and leave in
// waves while the membership service keeps every correct node's view
// consistent, and the bus-bandwidth cost of the protocol suite is printed
// per phase — the quantity the paper plots against Tm.
package main

import (
	"fmt"
	"time"

	"canely"
	"canely/internal/can"
)

const (
	members = 32
	churned = 20
)

func protocolUtilization(net *canely.Network, window canely.BusStats, span time.Duration) float64 {
	return window.TypeUtilization(net.Rate(), span,
		can.TypeFDA, can.TypeRHA, can.TypeJoin, can.TypeLeave, can.TypeELS)
}

func main() {
	cfg := canely.DefaultConfig()
	cfg.Tm = 50 * time.Millisecond
	net := canely.NewNetwork(cfg, members)
	for i := 0; i < churned; i++ {
		net.AddNode(canely.NodeID(members + i))
	}

	var view canely.NodeSet
	for i := 0; i < members; i++ {
		view = view.Add(canely.NodeID(i))
	}
	for i := 0; i < members; i++ {
		net.Node(canely.NodeID(i)).Bootstrap(view)
	}
	// Most members signal implicitly via application traffic.
	for i := 8; i < members; i++ {
		net.Node(canely.NodeID(i)).StartCyclicTraffic(1, cfg.Tb/2, []byte{1, 2, 3, 4})
	}

	phase := func(name string, span time.Duration, action func()) {
		before := net.Stats()
		start := net.Now()
		action()
		net.Run(span)
		window := net.Stats().Sub(before)
		fmt.Printf("%-28s %8v  protocol-bandwidth=%5.2f%%  total-bus=%5.2f%%\n",
			name, net.Now()-start,
			100*protocolUtilization(net, window, span),
			100*window.Utilization(net.Rate(), span))
	}

	fmt.Printf("churn demo: %d members, %d churning nodes, Tm=%v\n\n", members, churned, cfg.Tm)
	phase("steady state", 4*cfg.Tm, func() {})
	phase("mass join (20 nodes)", 4*cfg.Tm, func() {
		for i := 0; i < churned; i++ {
			net.Node(canely.NodeID(members + i)).Join()
		}
	})

	joined := 0
	for i := 0; i < churned; i++ {
		if net.Node(canely.NodeID(members + i)).Member() {
			joined++
		}
	}
	fmt.Printf("\n%d/%d churning nodes integrated; view size at node 0: %d\n\n",
		joined, churned, net.Node(0).View().Count())

	phase("steady state (52 nodes)", 4*cfg.Tm, func() {})
	phase("mass leave (20 nodes)", 4*cfg.Tm, func() {
		for i := 0; i < churned; i++ {
			net.Node(canely.NodeID(members + i)).Leave()
		}
	})

	// Consistency check across every remaining member.
	ref := net.Node(0).View()
	for _, nd := range net.Nodes() {
		if nd.Alive() && nd.Member() && nd.View() != ref {
			panic(fmt.Sprintf("view divergence at %v: %v vs %v", nd.ID(), nd.View(), ref))
		}
	}
	fmt.Printf("\nall members agree on the final view: %v nodes\n", ref.Count())
}
