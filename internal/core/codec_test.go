package core

import (
	"testing"

	"repro/internal/policy"
)

// The subscriber record must survive a round trip, and a blob cut anywhere —
// what a torn replica write would leave — must fail to decode, not panic or
// yield a partial record.
func TestStoreRecordRoundTrip(t *testing.T) {
	attr := policy.Attributes{Provider: "A", Plan: "silver", DeviceType: "phone",
		Model: "m1", OSVersion: "7.1", Roaming: true, Parental: true}

	sub := AppendSubscriberRecord(nil, attr)
	gotAttr, err := DecodeSubscriberRecord(sub)
	if err != nil || gotAttr != attr {
		t.Fatalf("subscriber round trip = %+v, %v; want %+v", gotAttr, err, attr)
	}
	for n := 0; n < len(sub); n++ {
		if _, err := DecodeSubscriberRecord(sub[:n]); err == nil {
			t.Fatalf("subscriber record cut to %d of %d bytes decoded", n, len(sub))
		}
	}

	sub[0] = recordVersion + 1
	if _, err := DecodeSubscriberRecord(sub); err == nil {
		t.Fatal("subscriber record of an unknown version decoded")
	}
}
