package ckptstore

import (
	"fmt"
	"slices"
)

// Client is one rank's connection to the service. It implements
// storage.Store by round-tripping every operation through the frame
// codec — the same bytes a networked deployment would put on the wire —
// so the supervisor, two-phase commit, and ResilientStore compose with
// the service exactly as with any other store.
type Client struct {
	svc    *Service
	id     uint32
	nextID uint64
	// req holds the encoded request, reused across operations: the
	// service does not keep a request frame after Handle returns.
	req []byte
}

// Client returns a connection for the given client id (one per rank).
func (s *Service) Client(id uint32) *Client {
	return &Client{svc: s, id: id}
}

// roundTrip encodes the request, hands it to the service, and decodes
// the response, translating the wire status back into the storage error
// taxonomy.
func (c *Client) roundTrip(req *Frame) (*Frame, error) {
	c.nextID++
	req.Kind = KindRequest
	req.Client = c.id
	req.ID = c.nextID
	req.Deadline = c.svc.cfg.OpDeadline
	c.req = req.appendEncode(slices.Grow(c.req[:0], frameHeaderLen+len(req.Key)+len(req.Payload)))
	respBytes, err := c.svc.Handle(c.req)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: client %d: %w", c.id, err)
	}
	resp, err := DecodeFrame(respBytes)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: client %d: bad response: %w", c.id, err)
	}
	if resp.Kind != KindResponse || resp.Op != req.Op || resp.ID != req.ID {
		return nil, fmt.Errorf("ckptstore: client %d: response mismatch: %w", c.id, ErrBadFrame)
	}
	if err := resp.Status.Err(req.Op, req.Key); err != nil {
		return nil, err
	}
	return resp, nil
}

// Put implements storage.Store.
func (c *Client) Put(key string, data []byte) error {
	_, err := c.roundTrip(&Frame{Op: OpPut, Key: key, Payload: data})
	return err
}

// Get implements storage.Store.
func (c *Client) Get(key string) ([]byte, error) {
	resp, err := c.roundTrip(&Frame{Op: OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// Delete implements storage.Store.
func (c *Client) Delete(key string) error {
	_, err := c.roundTrip(&Frame{Op: OpDelete, Key: key})
	return err
}

// Keys implements storage.Store.
func (c *Client) Keys() ([]string, error) {
	resp, err := c.roundTrip(&Frame{Op: OpKeys})
	if err != nil {
		return nil, err
	}
	return decodeKeys(resp.Payload)
}

// Size implements storage.Store.
func (c *Client) Size() (uint64, error) {
	resp, err := c.roundTrip(&Frame{Op: OpSize})
	if err != nil {
		return 0, err
	}
	return decodeSize(resp.Payload)
}
