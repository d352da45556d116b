package exp

import (
	"context"
	"fmt"
	"sort"

	"evorec/internal/feed"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

// E12FeedLocality (Table 8) verifies the feed subsystem's fan-out locality
// against planted ground truth. A subscriber population is split in two:
// the "hot" fraction registers interests drawn from entities the final
// version pair's measures actually score (the planted change region), the
// "cold" remainder registers interests in fresh classes no version ever
// mentions (an untouched region by construction). One commit-triggered
// fan-out must then (a) match only the hot subscribers in the inverted
// index — affected-set size ≪ pool size — and (b) deliver zero
// notifications to every cold subscriber. This is the inversion that turns
// notification from O(all users × items) per request into O(affected
// users) per commit.
func E12FeedLocality(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	olderID, newerID := ds.lastPairIDs()

	// Hot terms: entities the pair's items score positively, hottest
	// first, so subscribers land on entities with real signal.
	weight := make(map[rdf.Term]float64)
	for _, it := range ds.Items {
		for t, w := range it.Vector {
			if w > 0 {
				weight[t] += w
			}
		}
	}
	if len(weight) == 0 {
		return "", fmt.Errorf("exp: E12 pair %s->%s scored no entities", olderID, newerID)
	}
	hot := make([]rdf.Term, 0, len(weight))
	for t := range weight {
		hot = append(hot, t)
	}
	sort.Slice(hot, func(i, j int) bool {
		if weight[hot[i]] != weight[hot[j]] {
			return weight[hot[i]] > weight[hot[j]]
		}
		return hot[i].Compare(hot[j]) < 0
	})

	f, err := feed.Open(feed.Config{Threshold: 0.01, K: p.K})
	if err != nil {
		return "", err
	}
	users := p.Users
	if users < 8 {
		users = 8
	}
	hotUsers := users / 4
	if hotUsers < 1 {
		hotUsers = 1
	}
	for i := 0; i < users; i++ {
		var u *profile.Profile
		if i < hotUsers {
			u = profile.New(fmt.Sprintf("hot%04d", i))
			u.SetInterest(hot[i%len(hot)], 1)
		} else {
			u = profile.New(fmt.Sprintf("cold%04d", i))
			// Fresh classes outside every version's vocabulary: the
			// untouched region.
			u.SetInterest(rdf.SchemaIRI(fmt.Sprintf("UntouchedRegion%04d", i)), 1)
		}
		if _, _, err := f.Subscribe(u); err != nil {
			return "", err
		}
	}

	// Fan out through the compiled scoring index — the same shape the
	// service's commit path uses (index built once per pair, amortized over
	// every affected subscriber).
	st, err := f.FanOutIndexedCtx(context.Background(), olderID, newerID, recommend.NewItemIndex(ds.Items))
	if err != nil {
		return "", err
	}
	if st.Affected > hotUsers {
		return "", fmt.Errorf("exp: E12 affected %d subscribers, only %d are in the change region",
			st.Affected, hotUsers)
	}
	coldNotified := 0
	coldPolled := 0
	for _, sub := range f.Subscribers() {
		if len(sub.ID) < 4 || sub.ID[:4] != "cold" {
			continue
		}
		coldPolled++
		entries, _, err := f.Poll(sub.ID, 0, 0)
		if err != nil {
			return "", err
		}
		coldNotified += len(entries)
	}
	if coldNotified != 0 {
		return "", fmt.Errorf("exp: E12 delivered %d notifications to untouched-region subscribers", coldNotified)
	}

	t := newTable("E12 / Table 8 — feed fan-out locality (pair " + olderID + "->" + newerID + ")")
	t.rowf("subscribers\t%d", st.Subscribers)
	t.rowf("change-region subscribers\t%d", hotUsers)
	t.rowf("affected (index-matched, scored)\t%d", st.Affected)
	t.rowf("scored fraction of pool\t%.1f%%", 100*float64(st.Affected)/float64(st.Subscribers))
	t.rowf("notifications delivered\t%d", st.Notified)
	t.rowf("untouched-region subscribers polled\t%d", coldPolled)
	t.rowf("untouched-region notifications\t%d", coldNotified)
	t.row("")
	t.row("locality check: fan-out scored only index-matched subscribers; every")
	t.row("subscriber outside the planted change region received nothing.")
	return t.String(), nil
}
