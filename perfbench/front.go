package main

import (
	"strings"

	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/transport"
)

// timedCarrier is the benchmark's own driver.Transport: the fabric carrier's
// one Dispatch call, wrapped in a server.dispatch span.
type timedCarrier struct {
	srv *server.Server
	ep  transport.Endpoint
	tr  *Tracer
}

func (t *timedCarrier) Roundtrip(req []byte) ([]byte, error) {
	sp := t.tr.Begin("server.dispatch")
	resp, err := t.srv.Dispatch(t.ep, req)
	t.tr.End(sp)
	return resp, err
}

func (t *timedCarrier) Close() error { return nil }

// Client is one closed-loop front-door client: a one-connection driver pool
// and the tracer of the goroutine that uses it.
type Client struct {
	DB *driver.DB
	Tr *Tracer
}

// openClient dials srv through the fabric; traced clients dial through the
// timed carrier instead.
func openClient(srv *server.Server, tr *Tracer) (*Client, error) {
	dial := driver.Fabric(srv)
	if tr != nil {
		dial = func() (driver.Transport, error) {
			return &timedCarrier{srv: srv, ep: srv.NewClientEndpoint(), tr: tr}, nil
		}
	}
	db, err := driver.Open(dial, driver.Options{PoolSize: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	return &Client{DB: db, Tr: tr}, nil
}

// verb is a statement's lower-cased first word (its kind in span names).
func verb(sql string) string {
	if i := strings.IndexByte(sql, ' '); i > 0 {
		sql = sql[:i]
	}
	return strings.ToLower(sql)
}

// exec runs one statement in tx under a driver.<verb> span.
func (c *Client) exec(tx *driver.Tx, sql string) (*driver.Result, error) {
	sp := c.Tr.Begin("driver." + verb(sql))
	res, err := tx.Exec(sql)
	c.Tr.End(sp)
	return res, err
}

// begin opens a pinned transaction under a driver.begin span.
func (c *Client) begin() (*driver.Tx, error) {
	sp := c.Tr.Begin("driver.begin")
	tx, err := c.DB.Begin()
	c.Tr.End(sp)
	return tx, err
}

// commit commits under a driver.commit span.
func (c *Client) commit(tx *driver.Tx) error {
	sp := c.Tr.Begin("driver.commit")
	err := tx.Commit()
	c.Tr.End(sp)
	return err
}

// rollback aborts under a driver.rollback span.
func (c *Client) rollback(tx *driver.Tx) {
	sp := c.Tr.Begin("driver.rollback")
	_ = tx.Rollback()
	c.Tr.End(sp)
}

// query runs one autocommit statement under a driver.<verb> span.
func (c *Client) query(sql string) (*driver.Result, error) {
	sp := c.Tr.Begin("driver." + verb(sql))
	res, err := c.DB.Query(sql)
	c.Tr.End(sp)
	return res, err
}
